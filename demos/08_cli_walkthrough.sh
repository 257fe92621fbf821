#!/bin/sh
# End-to-end pipeline via the command line: generate data, validate it,
# fit calibrations, evaluate on the test split, run the bundled studies.
# Runs from a checkout without an install: the package is imported from the
# repository's src directory, whose absolute path is resolved before the cd.
set -e

SRC="$(cd "$(dirname "$0")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
lowfpr() { python3 -m lowfpr "$@"; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

cat > config.json <<'EOF'
{
  "n_benign": 5000,
  "n_malicious": 5000,
  "member_count": 5,
  "novel_fraction": 0.2,
  "benign_logit_mean": -2.5,
  "malicious_logit_mean": 2.0,
  "logit_sd": 1.2,
  "member_noise_sd_base": 0.5,
  "member_noise_sd_novel": 2.0,
  "split_fractions": [0.3, 0.35, 0.35],
  "seed": 42
}
EOF

echo "== synth =="
lowfpr synth --config config.json --output data.csv

echo
echo "== validate =="
lowfpr validate --input data.csv

echo
echo "== fit (global and one local variant) =="
lowfpr fit --input data.csv --variant g    --target-fpr 0.01 --seed 1
lowfpr fit --input data.csv --variant g+l  --target-fpr 0.01 --seed 1

echo
echo "== eval =="
lowfpr eval --input data.csv --calibration calibration_g+l_0.01.json
cat evaluation.csv

echo
echo "== studies =="
lowfpr study --input data.csv --study protocol --target-fpr 0.1 --target-fpr 0.01
lowfpr study --input data.csv --study subsample --fractions 1,0.2 --study-seeds 4 --target-fpr 0.05 --threads 4
lowfpr study --input data.csv --study table1
lowfpr study --input data.csv --study errors
lowfpr study --input data.csv --study novelty

echo
echo "protocol.csv:"
cat protocol.csv
echo
echo "table1.csv:"
cat table1.csv
