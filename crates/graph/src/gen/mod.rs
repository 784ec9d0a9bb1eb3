//! Synthetic social-graph generators.
//!
//! The paper evaluates on crawls of Flickr (2.4M nodes / 71M edges) and
//! Twitter (83M nodes / 1.4B edges). Those datasets are not redistributable,
//! so the harness substitutes synthetic graphs that preserve the two
//! structural properties the algorithms exploit:
//!
//! 1. **heavy-tailed degree distributions** — a few very popular producers
//!    act as natural hubs, and
//! 2. **high clustering** — a follower of `u` is likely to also follow other
//!    users that `u` interacts with, which is precisely what creates
//!    piggybackable `(x → w, w → y, x → y)` triangles (§1: "the high
//!    clustering coefficient of social networks implies the presence of many
//!    hubs").
//!
//! The [`copying`] model delivers both; [`planted_partition`] adds
//! community structure; [`erdos_renyi`] is the low-clustering control.
//! [`presets`] packages `flickr_like` / `twitter_like` configurations used
//! throughout the benchmark harness.

mod communities;
mod copying_model;
mod erdos_renyi;
pub mod presets;
mod reciprocity;

pub use communities::{planted_partition, PlantedPartitionConfig};
pub use copying_model::{copying, CopyingConfig};
pub use erdos_renyi::erdos_renyi;
pub use presets::{flickr_like, twitter_like};
pub use reciprocity::add_reciprocity;
