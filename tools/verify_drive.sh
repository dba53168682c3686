#!/bin/sh
# End-to-end drive of the installed `attrcap` binary in a scratch dir.
# Without an installed one, it drives this checkout's `src/`.
set -eu
SRC="$(cd "$(dirname "$0")/../src" && pwd)"
WORK="$(mktemp -d)"
cd "$WORK"

# A shim file, not a shell function: `taskset` below needs an executable.
if ! command -v attrcap >/dev/null 2>&1 || ! python3 -c 'import attrcap' 2>/dev/null; then
    export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
    mkdir bin
    printf '#!/bin/sh\nexec python3 -c "from attrcap.cli import entrypoint; entrypoint()" "$@"\n' \
        > bin/attrcap
    chmod +x bin/attrcap
    PATH="$WORK/bin:$PATH"
fi

python3 - <<'EOF'
import json
import numpy as np
from attrcap import storage
from attrcap.nncore import Rng

captions = {"annotations": [
    {"image_id": 1, "id": 10, "caption": "A red bird sits on a branch"},
    {"image_id": 1, "id": 11, "caption": "The red bird rests quietly"},
    {"image_id": 2, "id": 20, "caption": "A yellow dog runs on grass"},
    {"image_id": 2, "id": 21, "caption": "The dog chases a ball"},
    {"image_id": 3, "id": 30, "caption": "A red ball lies on the grass"},
    {"image_id": 3, "id": 31, "caption": "The ball is red"},
    {"image_id": 4, "id": 40, "caption": "A bird and a dog play"},
    {"image_id": 4, "id": 41, "caption": "The dog watches the bird"},
]}
with open("captions.json", "w") as fh:
    json.dump(captions, fh)
storage.write_features("feats.daef", [1, 2, 3, 4], Rng(50).normal((4, 12)))
# Attributes of images that feats.daef does not hold, features and
# attributes of one image, attributes of a width no vocabulary here
# has, and features of width 0 and of a width no model takes, for the
# error contract.
storage.write_attributes("other_ids.jsonl", [5, 6, 7, 8], np.full((4, 3), 0.5))
storage.write_features("one.daef", [1], Rng(50).normal((1, 12)))
storage.write_attributes("one.jsonl", [1], np.full((1, 3), 0.5))
storage.write_attributes("narrow.jsonl", [1, 2, 3, 4], np.full((4, 2), 0.5))
storage.write_features("widthless.daef", [1, 2, 3, 4], np.zeros((4, 0)))
storage.write_features("wide.daef", [1, 2, 3, 4], Rng(50).normal((4, 13)))
# word2vec-format vectors for two caption words, after a "count dim" header.
with open("vectors.txt", "w") as fh:
    fh.write("2 6\nred 0.125 0.25 0.375 0.5 0.625 0.75\ndog -0.25 -0.25 -0.25 -0.25 -0.25 -0.25\n")
EOF

# Two runs in separate directories with identical relative paths: the
# embedded command lines (and so the artifacts) must match byte for byte.
run_pipeline() {
    dir="$1"
    mkdir -p "$dir"
    cp captions.json feats.daef vectors.txt "$dir/"
    cd "$dir"
    attrcap extract --captions captions.json --stem --idf-threshold 1.3 \
        --out-vocab vocab.json --out-attrs gt.jsonl --seed 3
    attrcap vocab-report --captions captions.json --thresholds 1.0,1.3,2.0 \
        --out sizes.json
    attrcap train-attr --features feats.daef --attrs gt.jsonl \
        --out-model attr.daec --hidden 16 --epochs 40 --batch-size 2 \
        --learning-rate 0.003 --ensemble 2 --seed 5
    # Each 1024 x 1024 hidden weight's gradient spans two row slabs.
    attrcap train-attr --features feats.daef --attrs gt.jsonl \
        --out-model attr_wide.daec --hidden 1024 --epochs 4 --batch-size 2 \
        --learning-rate 0.003 --ensemble 2 --seed 5
    # Each 1100-column product runs in panels of 512, 512 and 76 columns.
    # BLAS runs on one thread, as in the benchmark: at this width a second
    # OpenBLAS thread rounds a product differently, whole or in panels, and
    # the one-CPU check below is to compare pool worker counts alone.
    OPENBLAS_NUM_THREADS=1 attrcap train-attr --features feats.daef --attrs gt.jsonl \
        --out-model attr_odd.daec --hidden 1100 --epochs 4 --batch-size 2 \
        --learning-rate 0.003 --ensemble 2 --seed 5
    attrcap predict-attr --features feats.daef --model attr.daec \
        --out-attrs pred.jsonl --seed 5
    attrcap train-captioner --captions captions.json --features feats.daef \
        --attrs pred.jsonl --out-model cap.daec --min-count 1 \
        --embed-dim 6 --hidden 8 --factor 8 --dropout 0.0 \
        --learning-rate 0.01 --batch-size 4 --epochs 8 --val-fraction 0.25 \
        --patience 4 --ensemble 2 --seed 7
    # Dropout draws one mask per step over the running rows: reruns
    # must draw the same masks in the same order.
    attrcap train-captioner --captions captions.json --features feats.daef \
        --attrs pred.jsonl --out-model cap_drop.daec --min-count 1 \
        --embed-dim 6 --hidden 8 --factor 8 --dropout 0.3 \
        --learning-rate 0.01 --batch-size 4 --epochs 8 --val-fraction 0.25 \
        --patience 4 --ensemble 2 --seed 7
    # Each member draws its own embedding table, and the file's vectors
    # replace the rows of its words.
    attrcap train-captioner --captions captions.json --features feats.daef \
        --attrs pred.jsonl --out-model cap_emb.daec --min-count 1 \
        --embed-dim 6 --hidden 8 --factor 8 --dropout 0.0 \
        --learning-rate 0.01 --batch-size 4 --epochs 8 --val-fraction 0.25 \
        --patience 4 --ensemble 2 --init-embeddings vectors.txt --seed 7
    attrcap caption --features feats.daef --attrs pred.jsonl \
        --model cap.daec --beam 3 --max-len 8 --out decoded.jsonl --seed 7
    attrcap eval-attr --pred pred.jsonl --gt gt.jsonl --out f1.json
    attrcap eval-captions --candidates decoded.jsonl \
        --references captions.json --out scores.json
    cd ..
}

echo "== run 1 =="
run_pipeline run1
echo "== run 2 (determinism) =="
run_pipeline run2 > /dev/null

for f in vocab.json gt.jsonl sizes.json attr.daec attr_wide.daec attr_odd.daec \
         pred.jsonl cap.daec cap_drop.daec cap_emb.daec decoded.jsonl f1.json scores.json; do
    cmp run1/"$f" run2/"$f" || { echo "MISMATCH: $f"; exit 1; }
done
echo "determinism: all 13 artifacts byte-identical"

# Attribute lines are assembled without json.dumps of each record: they
# must still be exactly what json.dumps(record, sort_keys=True) writes.
for f in gt.jsonl pred.jsonl; do
    python3 -c '
import json, sys
for line in sys.stdin:
    print(json.dumps(json.loads(line), sort_keys=True))
' < run1/"$f" > "reencoded_$f"
    cmp run1/"$f" "reencoded_$f" || { echo "MISMATCH: $f is not json.dumps"; exit 1; }
done
echo "attribute files: every line is json.dumps of its record"

# One CPU runs the worker pool with one worker: row-slab and panelled
# attribute training, decoder training, predictions and decodes must not
# depend on the worker count.
if command -v taskset >/dev/null 2>&1; then
    mkdir -p one_cpu
    cp captions.json feats.daef run1/gt.jsonl run1/attr.daec one_cpu/
    cd one_cpu
    taskset -c 0 attrcap train-attr --features feats.daef --attrs gt.jsonl \
        --out-model attr_wide.daec --hidden 1024 --epochs 4 --batch-size 2 \
        --learning-rate 0.003 --ensemble 2 --seed 5 > /dev/null
    OPENBLAS_NUM_THREADS=1 taskset -c 0 attrcap train-attr --features feats.daef --attrs gt.jsonl \
        --out-model attr_odd.daec --hidden 1100 --epochs 4 --batch-size 2 \
        --learning-rate 0.003 --ensemble 2 --seed 5 > /dev/null
    taskset -c 0 attrcap predict-attr --features feats.daef --model attr.daec \
        --out-attrs pred.jsonl --seed 5 > /dev/null
    for dropout in 0.0 0.3; do
        [ "$dropout" = 0.0 ] && model=cap.daec || model=cap_drop.daec
        taskset -c 0 attrcap train-captioner --captions captions.json --features feats.daef \
            --attrs pred.jsonl --out-model "$model" --min-count 1 \
            --embed-dim 6 --hidden 8 --factor 8 --dropout "$dropout" \
            --learning-rate 0.01 --batch-size 4 --epochs 8 --val-fraction 0.25 \
            --patience 4 --ensemble 2 --seed 7 > /dev/null
    done
    taskset -c 0 attrcap caption --features feats.daef --attrs pred.jsonl \
        --model cap.daec --beam 3 --max-len 8 --out decoded.jsonl --seed 7 > /dev/null
    cd ..
    for f in attr_wide.daec attr_odd.daec pred.jsonl cap.daec cap_drop.daec decoded.jsonl; do
        cmp run1/"$f" one_cpu/"$f" || { echo "MISMATCH: $f on one CPU"; exit 1; }
    done
    echo "one CPU: wide and odd-width attribute training, decoder training with and" \
         "without dropout, predictions and decodes byte-identical"
fi

echo "== decoded captions =="
tail -n +2 run1/decoded.jsonl
echo "== caption scores =="
cat run1/scores.json

echo "== error contract =="
set +e
attrcap 2>/dev/null; [ $? -eq 1 ] || { echo "BAD: no-args exit"; exit 1; }
attrcap extract --captions missing.json --idf-threshold 2 \
    --out-vocab v --out-attrs a 2>/dev/null
[ $? -eq 2 ] || { echo "BAD: missing-file exit"; exit 1; }
# A diverging run fails as a numeric error, prints exactly one line to
# stderr and leaves neither a checkpoint nor the temporary it was being
# written to.
attrcap train-attr --features run1/feats.daef --attrs run1/gt.jsonl \
    --out-model diverged.daec --hidden 16 --epochs 40 --batch-size 2 \
    --learning-rate 1e300 --ensemble 2 --seed 5 2>diverged.stderr
[ $? -eq 3 ] || { echo "BAD: diverging train-attr exit"; exit 1; }
[ "$(wc -l < diverged.stderr)" -eq 1 ] && grep -q '^error: numeric: ' diverged.stderr \
    || { echo "BAD: diverging train-attr stderr:"; cat diverged.stderr; exit 1; }
for f in diverged.daec*; do
    [ -e "$f" ] && { echo "BAD: diverging train-attr left $f"; exit 1; }
done
# A zero width is a usage error: exactly one line to stderr, and neither
# a checkpoint nor a temporary left behind.
attrcap train-attr --features run1/feats.daef --attrs run1/gt.jsonl \
    --out-model zero_width.daec --hidden 0 --seed 5 2>zero_width.stderr
[ $? -eq 1 ] || { echo "BAD: zero-width train-attr exit"; exit 1; }
[ "$(wc -l < zero_width.stderr)" -eq 1 ] && grep -q '^error: usage: ' zero_width.stderr \
    || { echo "BAD: zero-width train-attr stderr:"; cat zero_width.stderr; exit 1; }
for f in zero_width.daec*; do
    [ -e "$f" ] && { echo "BAD: zero-width train-attr left $f"; exit 1; }
done
# An IDF threshold that admits no word (every IDF is at least 1) is a
# usage error: exactly one line to stderr, and neither output written.
attrcap extract --captions captions.json --idf-threshold 1 \
    --out-vocab no_words.json --out-attrs no_words.jsonl 2>no_words.stderr
[ $? -eq 1 ] || { echo "BAD: wordless extract exit"; exit 1; }
[ "$(wc -l < no_words.stderr)" -eq 1 ] && grep -q '^error: usage: ' no_words.stderr \
    || { echo "BAD: wordless extract stderr:"; cat no_words.stderr; exit 1; }
for f in no_words.json no_words.jsonl; do
    [ -e "$f" ] && { echo "BAD: wordless extract left $f"; exit 1; }
done
# Attributes of other images (a join error) and a truncated checkpoint
# (a format error) are data errors: exactly one line to stderr, and no
# checkpoint, temporary or predictions left behind.
attrcap train-attr --features feats.daef --attrs other_ids.jsonl \
    --out-model unjoined.daec --hidden 16 --epochs 1 --seed 5 2>unjoined.stderr
[ $? -eq 2 ] || { echo "BAD: unjoinable train-attr exit"; exit 1; }
[ "$(wc -l < unjoined.stderr)" -eq 1 ] \
    && grep -q '^error: data: feats\.daef and other_ids\.jsonl ' unjoined.stderr \
    || { echo "BAD: unjoinable train-attr stderr:"; cat unjoined.stderr; exit 1; }
for f in unjoined.daec*; do
    [ -e "$f" ] && { echo "BAD: unjoinable train-attr left $f"; exit 1; }
done
# Predictions and ground truth of different images: a data error whose
# one line names both files, and no report written.
attrcap eval-attr --pred run1/pred.jsonl --gt other_ids.jsonl \
    --out unjoined_f1.json 2>unjoined_f1.stderr
[ $? -eq 2 ] || { echo "BAD: unjoinable eval-attr exit"; exit 1; }
[ "$(wc -l < unjoined_f1.stderr)" -eq 1 ] \
    && grep -q '^error: data: run1/pred\.jsonl and other_ids\.jsonl ' unjoined_f1.stderr \
    || { echo "BAD: unjoinable eval-attr stderr:"; cat unjoined_f1.stderr; exit 1; }
for f in unjoined_f1.json*; do
    [ -e "$f" ] && { echo "BAD: unjoinable eval-attr left $f"; exit 1; }
done
# Predictions and ground truth of different widths: a data error whose
# one line names both files, found before scoring, and no report written.
attrcap eval-attr --pred run1/pred.jsonl --gt narrow.jsonl \
    --out narrow_f1.json 2>narrow_f1.stderr
[ $? -eq 2 ] || { echo "BAD: wrong-width eval-attr exit"; exit 1; }
[ "$(wc -l < narrow_f1.stderr)" -eq 1 ] \
    && grep -q \
        '^error: data: run1/pred\.jsonl holds 7 attributes per image and narrow\.jsonl holds 2$' \
        narrow_f1.stderr \
    || { echo "BAD: wrong-width eval-attr stderr:"; cat narrow_f1.stderr; exit 1; }
for f in narrow_f1.json*; do
    [ -e "$f" ] && { echo "BAD: wrong-width eval-attr left $f"; exit 1; }
done
# One image is too few to batch-normalize a training batch: a data error
# that names the feature file, found before training, although no flag
# is wrong.
attrcap train-attr --features one.daef --attrs one.jsonl \
    --out-model one.daec --hidden 16 --epochs 1 --seed 5 2>one.stderr
[ $? -eq 2 ] || { echo "BAD: one-image train-attr exit"; exit 1; }
[ "$(wc -l < one.stderr)" -eq 1 ] && grep -q '^error: data: one\.daef: ' one.stderr \
    || { echo "BAD: one-image train-attr stderr:"; cat one.stderr; exit 1; }
for f in one.daec*; do
    [ -e "$f" ] && { echo "BAD: one-image train-attr left $f"; exit 1; }
done
# Features of width 0 are a data error, although no flag is wrong.
attrcap train-attr --features widthless.daef --attrs run1/gt.jsonl \
    --out-model widthless.daec --hidden 16 --epochs 1 --seed 5 2>widthless.stderr
[ $? -eq 2 ] || { echo "BAD: widthless train-attr exit"; exit 1; }
[ "$(wc -l < widthless.stderr)" -eq 1 ] && grep -q '^error: data: ' widthless.stderr \
    || { echo "BAD: widthless train-attr stderr:"; cat widthless.stderr; exit 1; }
for f in widthless.daec*; do
    [ -e "$f" ] && { echo "BAD: widthless train-attr left $f"; exit 1; }
done
# Features wider than the captioner's are a data error that names the
# feature file, checked before decoding: no captions are written.
attrcap caption --features wide.daef --attrs run1/pred.jsonl \
    --model run1/cap.daec --out wide.jsonl --seed 7 2>wide.stderr
[ $? -eq 2 ] || { echo "BAD: wrong-width caption exit"; exit 1; }
[ "$(wc -l < wide.stderr)" -eq 1 ] && grep -q '^error: data: wide\.daef: ' wide.stderr \
    || { echo "BAD: wrong-width caption stderr:"; cat wide.stderr; exit 1; }
for f in wide.jsonl*; do
    [ -e "$f" ] && { echo "BAD: wrong-width caption left $f"; exit 1; }
done
head -c "$(($(wc -c < run1/attr.daec) / 2))" run1/attr.daec > truncated.daec
attrcap predict-attr --features feats.daef --model truncated.daec \
    --out-attrs truncated.jsonl --seed 5 2>truncated.stderr
[ $? -eq 2 ] || { echo "BAD: truncated predict-attr exit"; exit 1; }
[ "$(wc -l < truncated.stderr)" -eq 1 ] && grep -q '^error: data: ' truncated.stderr \
    || { echo "BAD: truncated predict-attr stderr:"; cat truncated.stderr; exit 1; }
for f in truncated.jsonl*; do
    [ -e "$f" ] && { echo "BAD: truncated predict-attr left $f"; exit 1; }
done
set -e
echo "exit codes: usage=1, data=2, numeric=3 confirmed; join, width and" \
    "one-image errors name their files; no checkpoint or report left"
echo "VERIFY DRIVE OK ($WORK)"
