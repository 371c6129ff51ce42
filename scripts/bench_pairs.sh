#!/usr/bin/env bash
# The alternating-pairs protocol bench11/README.md asks of any claimed gain
# (`bench11 compare` reads two finished reports only):
#
#   scripts/bench_pairs.sh <parent-tree> <change-tree> <workload|all> [pairs=10] [seed=11]
#
# Builds each tree with its own bench11/run.sh into its own target dir,
# then runs <workload> `pairs` times per side at the benchmark's own run
# length, alternating which side goes first. `all` as the workload runs
# every workload of the change tree's BENCHMARK.json in turn and prints
# one table — a change is judged on all of them. Prints, per workload and
# end-to-end metric of the change tree's BENCHMARK.json: both medians and
# quartiles, the pairs the change won (ties count for neither side),
# whether the gain rule holds (wins >= 9/10 of the pairs and the medians
# further apart than the parent's own inter-quartile distance), and
# whether every run's `sim_digest` matched and no operation failed.
#
# Builds and run outputs live under <change-tree>/target/bench_pairs and
# are reused by later invocations.
set -euo pipefail

usage="usage: bench_pairs.sh <parent-tree> <change-tree> <workload|all> [pairs=10] [seed=11]"
parent="$(realpath "${1:?$usage}")"
change="$(realpath "${2:?$usage}")"
workload="${3:?$usage}"
pairs="${4:-10}"
seed="${5:-11}"
work="$change/target/bench_pairs"

if [ "$workload" = all ]; then
  workloads="$(awk '
    /"workloads"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, ""); print $2 }
    on && /\]/     { exit }' "$change/BENCHMARK.json")"
else
  workloads="$workload"
fi

# Build (run.sh always runs what it built: a one-second --quick pass doubles
# as a smoke test of the binary).
for side in parent change; do
  tree="${!side}"
  echo "building $side: $tree" >&2
  CARGO_TARGET_DIR="$work/$side-target" bash "$tree/bench11/run.sh" \
    --workload "${workloads%%$'\n'*}" --seed "$seed" --seconds 1 --quick \
    --out "$work/runs/smoke-$side" >/dev/null
done

# End-to-end metric names and directions, from the benchmark's manifest.
metrics="$(awk '
  /"end_to_end"/ { on = 1 }
  on && /"name"/   { gsub(/[",]/, ""); name = $2 }
  on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
  on && /\]/       { exit }' "$change/BENCHMARK.json")"

run_side() { # side, pair index
  local out="$runs/$1-$2"
  "$work/$1-target/release/bench11" --workload "$workload" --seed "$seed" --trace 0 --out "$out" \
    >/dev/null || echo "$workload pair $2: $1 run reported a failure" >&2
}

for workload in $workloads; do
  runs="$work/runs/$workload-seed$seed"
  rm -rf "$runs"
  mkdir -p "$runs"
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      run_side "$side" "$i"
    done
    echo "$workload pair $i/$pairs done ($order)" >&2
  done
done

# One field of a run's result file (`"key": value` or `"key": {"value": v`).
field() { # file, key
  sed -n "s/.*\"$2\": \(\"[^\"]*\"\|{\"value\": [-0-9.e+]*\|[-0-9.e+a-z]*\).*/\1/p" "$1" |
    head -n 1 | sed 's/^{"value": //; s/"//g'
}

echo "seed $seed  pairs $pairs  (parent $parent, change $change)"
printf '%-12s %-24s %-6s %12s %12s %12s   %12s %12s %12s  %7s  %s\n' \
  workload metric better parent_q1 parent_med parent_q3 change_q1 change_med change_q3 wins gain_rule
for workload in $workloads; do
  runs="$work/runs/$workload-seed$seed"
  while read -r name better; do
    rows=""
    for i in $(seq 1 "$pairs"); do
      p="$(field "$runs/parent-$i/$workload.trace0.json" "$name")"
      c="$(field "$runs/change-$i/$workload.trace0.json" "$name")"
      rows+="$p $c"$'\n'
    done
    printf '%s' "$rows" | awk -v workload="$workload" -v name="$name" -v better="$better" '
      function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
      }
      function sorted(src, dst, n,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[i]
        for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
      }
      { n++; p[n] = $1; c[n] = $2
        if (better == "higher" ? $2 > $1 : $2 < $1) wins++ }
      END {
        sorted(p, ps, n); sorted(c, cs, n)
        pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
        iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
        apart = better == "higher" ? cm - pm : pm - cm
        rule = n < 10 ? "n/a under 10 pairs" : (wins * 10 >= n * 9 && apart > iqr) ? "met" : "not met"
        printf "%-12s %-24s %-6s %12.4f %12.4f %12.4f   %12.4f %12.4f %12.4f  %3d/%-3d  %s (%+.1f%%)\n", \
          workload, name, better, quantile(ps, n, 0.25), pm, quantile(ps, n, 0.75), \
          quantile(cs, n, 0.25), cm, quantile(cs, n, 0.75), wins, n, rule, (cm / pm - 1) * 100
      }'
  done <<<"$metrics"
done

for workload in $workloads; do
  runs="$work/runs/$workload-seed$seed"
  digests="$(for f in "$runs"/{parent,change}-*/"$workload.trace0.json"; do field "$f" sim_digest; done | sort -u)"
  failed="$(for f in "$runs"/{parent,change}-*/"$workload.trace0.json"; do field "$f" failed; done | sort -u | tr '\n' ' ')"
  if [ "$(printf '%s\n' "$digests" | wc -l)" -eq 1 ]; then
    echo "$workload sim_digest: identical in all $((pairs * 2)) runs ($digests)"
  else
    echo "$workload sim_digest: DIFFERS across runs: $(echo $digests)"
  fi
  echo "$workload failed operations per run (distinct values): $failed"
done
