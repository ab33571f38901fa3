#!/usr/bin/env bash
# The README quick start, end to end, in the current directory, with the
# installed falldetect command ([project.scripts]).  Run it outside the
# checkout: bash .github/scripts/readme_quick_start.sh
#
# - run --jobs 2 and --jobs 3 (whose workers take SVM fold batches, of
#   one-class and two-class folds alike, that do not divide the 10 folds)
#   must write every file but run.json (which records --jobs) exactly as
#   the serial run does.
# - demo_parsed loses the parse records ingest wrote, so its run parses
#   the dataset again, and must write what the run that read them wrote.
# - report must re-render the summary run wrote, byte for byte, with the
#   ROC files moved aside (it reads no curve).
# - one-class duals of a split and gamma share their steps until a box
#   parts them: nu = 1.0 puts its box at the start, and a repeated nu is
#   solved once; the pools must write what the serial run writes.
# - demo_nu's run.json, as the config of a run into a fresh ingest,
#   replays that run: every file but run.json as demo_nu holds it.
set -eo pipefail

falldetect synth  --out demo_data --adl 60 --falls 20 --seed 21
falldetect ingest --dataset1 demo_data --out demo_out --seed 33
falldetect ingest --dataset1 demo_data --out demo_pool --seed 33
falldetect ingest --dataset1 demo_data --out demo_pool3 --seed 33
falldetect ingest --dataset1 demo_data --out demo_parsed --seed 33
rm demo_parsed/parsed_*
falldetect run    --dataset1 demo_data --out demo_out
falldetect run    --dataset1 demo_data --out demo_pool --jobs 2
falldetect run    --dataset1 demo_data --out demo_pool3 --jobs 3
falldetect run    --dataset1 demo_data --out demo_parsed
diff -r -x run.json demo_out demo_pool
diff -r -x run.json demo_out demo_pool3
diff -r -x run.json -x 'parsed_*' demo_out demo_parsed
mv demo_out/summary.csv run_summary.csv
mkdir demo_rocs
mv demo_out/roc_*.csv demo_rocs/
falldetect report --out demo_out
cmp run_summary.csv demo_out/summary.csv

echo '{"nu_grid": [1.0, 0.2, 0.2, 0.01]}' > nu.json
for out in demo_nu demo_nu_pool2 demo_nu_pool3; do
  falldetect ingest --dataset1 demo_data --out $out --seed 33 --config nu.json
done
falldetect run --dataset1 demo_data --out demo_nu --config nu.json --classifier OC_SVM
falldetect run --dataset1 demo_data --out demo_nu_pool2 --config nu.json --classifier OC_SVM --jobs 2
falldetect run --dataset1 demo_data --out demo_nu_pool3 --config nu.json --classifier OC_SVM --jobs 3
diff -r -x run.json demo_nu demo_nu_pool2
diff -r -x run.json demo_nu demo_nu_pool3

falldetect ingest --dataset1 demo_data --out demo_nu_replay --seed 33
falldetect run --config demo_nu/run.json --out demo_nu_replay
diff -r -x run.json demo_nu demo_nu_replay
