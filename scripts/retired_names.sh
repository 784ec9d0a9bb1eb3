#!/usr/bin/env bash
# Retired names stay retired: one row per (scope, pattern), each with the
# reason the name went. A row fails if a non-test line of a Rust file in
# its scope matches its pattern, and prints the line as `file:line`.
#
#   scripts/retired_names.sh        # from anywhere; exit 0 = every row clean
#
# A directory in a scope is scanned for `*.rs`. Test code is each
# `#[cfg(test)]` + `mod tests` block, from the `mod tests` line to the end
# of its file; a row may also skip files by name (the test-only `textbook`
# models). Patterns are POSIX extended regexes. A row checks its names
# only: a retired item pasted back under a new name passes it.
set -euo pipefail
cd "$(dirname "$0")/.."

failed=0

# row <scope> <skip file name or -> <pattern> <reason>
row() {
    local scope="$1" skip="$2" pat="$3" reason="$4" found not=()
    if [ "$skip" != - ]; then
        not=(! -name "$skip")
    fi
    # shellcheck disable=SC2086 # the scope is a list of paths
    found=$(find $scope -name '*.rs' "${not[@]}" -exec env PAT="$pat" awk '
        FNR == 1 { t = 0 }
        /^mod tests/ && p ~ /^#\[cfg\(test\)\]/ { t = 1 }
        !t && $0 ~ ENVIRON["PAT"] { print FILENAME ":" FNR }
        { p = $0 }' {} + | sort)
    if [ -n "$found" ]; then
        printf 'FAIL %s /%s/: %s\n%s\n' "$scope" "$pat" "$reason" "$found"
        failed=1
    else
        printf 'ok   %s /%s/\n' "$scope" "$pat"
    fi
}

row 'crates src examples tests' - \
    'STREAM_BLOCK|count_block|fill_block|StreamingBuilder|StreamingFill|from_sorted_edges' \
    'one way to build a CSR: every graph comes out of CsrGraph::from_replayed'
row 'crates src examples tests' - \
    'DynamicGraph' \
    'IncrementalScheduler is the one record of the churned graph'
row 'crates/core/src/incremental.rs' - \
    'hub_covers|edge_endpoints' \
    'the schedule is the one record of the cover: a removed hub leg walks the adjacency for its orphans'
row 'crates/core/src/schedule.rs' - \
    'push_set_of|pull_set_of' \
    'the schedule keeps no per-user set builders'
row 'crates/store/src/server.rs' - \
    'FxHashMap|FxBuildHasher' \
    'one view-map hash: plain Fx puts every view of a hash-placed shard in one probe chain'
row 'crates/core/src crates/store/src' textbook.rs \
    'densest_hub_graph_key_scratch|densest_hub_graph_marginal_scratch|densest_hub_graph\(|RoleList|run_reference|query_reference|sort_merge' \
    'one oracle, one greedy, one query path: reference models live in the test-only textbook modules'
row 'crates/store/src crates/serve/src' - \
    'ExtractView|InstallView|ResetViews|handle_request|SHARD_STATS_BYTES' \
    'the control plane calls its shards under their locks; only client batches cross the wire'
row 'crates/serve/src' - \
    'ShardRequest' \
    'the store keeps ShardRequest only as the worker-plane alias the benchmark binds'
row 'crates src examples tests' - \
    'EdgeCosts|edge_costs' \
    'one hybrid rule: cost.rs prices an edge from the endpoints the walk holds; no per-edge price cache'

# Both crates declare their reference models test-only.
for lib in crates/core/src/lib.rs crates/store/src/lib.rs; do
    if awk '$0 == "mod textbook;" && p == "#[cfg(test)]" { ok = 1 } { p = $0 } END { exit !ok }' "$lib"; then
        printf 'ok   %s: #[cfg(test)] mod textbook;\n' "$lib"
    else
        printf 'FAIL %s: no #[cfg(test)] mod textbook;\n' "$lib"
        failed=1
    fi
done

exit "$failed"
