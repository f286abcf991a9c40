#!/usr/bin/env bash
# Reachability scan: every value a library interface exports must be one
# the program reaches.
#
# For each `val v` in lib/*/*.mli (module M, from the file name), the scan
# looks for the qualified name `M.v` in lib/ bin/ bench/ benchmark/ and
# examples/; M's own .ml and .mli and test/ do not count. A value declared
# inside a `module Incr : sig ... end` block is looked up as `Incr.v`, and
# the local aliases `C` (Parallel.Counter) and `Ev` (Service.Event) count
# as the module name. A value nothing names is a hit.
#
# Every hit must be on the allowlist below, with its reason; an allowlist
# entry that is no longer a hit fails the scan too, so the list shrinks as
# values gain callers or go. A new hit is dead code or an interface wider
# than its callers: delete the value, drop it from the .mli, or call it
# from the program. Deleting a value can orphan another, so scan again.
#
# Usage: bash test/reachability.sh   (from anywhere; exits 1 on a finding)
set -euo pipefail
cd "$(dirname "$0")/.."

# Name, then why no program path names it. Only values that tests use to
# observe or check reachable code (observers, oracles, fuzz targets of
# parsers of untrusted bytes) belong here, plus Srlg.make.
allow=$(cat <<'ALLOW'
Batch.prep                       observer: tests snapshot the shared prepared model to check overlays never mutate it
Branch_bound.better_key          observer: tests check the (bound, depth) order of the node heap
Cluster.partition                observer: tests check the node clustering that Cluster.analyze solves block by block
Cluster.wave_budget              observer: tests check the per-wave time split that Cluster.analyze uses
Core.witness_pool                observer: tests check the cap and order of the scenarios the alert witness stage replays
Cuts.active_cuts                 observer: tests read the cuts a separation round activated
Cuts.eval_cut                    oracle: tests check cut validity at LP and MILP points with it
Demand_io.of_csv                 fuzz target: tests feed malformed CSV to the parser behind Demand_io.load
Demand_io.to_csv                 oracle: tests round-trip of_csv (to_csv d), the writer behind Demand_io.save
Enumerate.binomial               oracle: tests check the count that guards Enumerate.up_to_k against Pascal's triangle
Enumerate.count_up_to_k          oracle: tests check the length of Enumerate.up_to_k against it
Gml.parse_string                 fuzz target: tests mutate GML text fed to the parser behind Gml.load_file
Journal.scan                     observer: tests read a journal without truncating it
Monte_carlo.prob_degradation_above observer: tests read the tail of sampled degradations
Path_set.find                    observer: tests look up one pair's computed paths
Path_set.total_paths             observer: tests count the paths Path_set.compute returns
Postsolve.reduced_of_orig        observer: tests check presolve's column mapping
Postsolve.value_of_fixed         observer: tests check the values presolve fixed
Probability.per_link_cost        observer: tests check the cost of an always-down link is +inf, not nan
Serialize.of_string              fuzz target: tests feed malformed .wan text to the parser behind Serialize.load
Serialize.to_string              oracle: tests round-trip of_string (to_string t), the writer behind Serialize.save
Srlg.make                        the constructor of Bilevel.spec.srlgs, the SRLG capability of the paper's section 1
Topology.is_connected            observer: tests check generated and Zoo topologies are connected
ALLOW
)

# Prints "<qualifier> <value>" for each val of one .mli.
read -r -d '' vals_awk <<'AWK' || true
/^module [A-Z][A-Za-z0-9_]* *: *sig/ { inner = $0; sub(/^module /, "", inner); sub(/ *:.*/, "", inner); next }
inner != "" && /^end/ { inner = ""; next }
/^ *val / {
  v = $0
  sub(/^ *val +\(?/, "", v)
  if (match(v, /^[a-z_][A-Za-z0-9_']*/)) print (inner != "" ? inner : mod) " " substr(v, 1, RLENGTH)
}
AWK

hits=$(
  for f in lib/*/*.mli; do
    base=${f%.mli}
    mod=$(basename "$base")
    mod=${mod^}
    awk -v mod="$mod" "$vals_awk" "$f" | sort -u | while read -r q v; do
      names=$q
      case "$f" in
        lib/parallel/counter.mli) names="$q|C" ;;
        lib/service/event.mli) names="$q|Ev" ;;
      esac
      users=$(grep -rlwE --include='*.ml' --include='*.mli' -- "($names)\.$v" \
        lib bin bench benchmark examples | grep -v "^$base\.mli\?$" || true)
      if [ -z "$users" ]; then
        if [ "$q" = "$mod" ]; then echo "$mod.$v"; else echo "$mod.$q.$v"; fi
      fi
    done
  done | sort
)

allowed=$(echo "$allow" | awk '{ print $1 }' | sort)
new=$(comm -23 <(echo "$hits") <(echo "$allowed") | sed '/^$/d')
stale=$(comm -13 <(echo "$hits") <(echo "$allowed") | sed '/^$/d')

count() { sed '/^$/d' <<<"$1" | wc -l; }
echo "reachability: $(count "$hits") hits, $(count "$allowed") allowlisted"
status=0
if [ -n "$new" ]; then
  echo "exported values no program path names (not on the allowlist):"
  echo "$new" | sed 's/^/  /'
  status=1
fi
if [ -n "$stale" ]; then
  echo "allowlist entries that are no longer hits (delete them):"
  echo "$stale" | sed 's/^/  /'
  status=1
fi
exit $status
