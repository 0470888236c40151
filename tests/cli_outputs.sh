#!/bin/sh
# Run a fixed list of lamlab CLI commands against one source tree and keep
# every output: each command's CSV, stdout, stderr and exit code, one file
# each in OUT_DIR.  Two trees agree when every file compares equal (cmp):
#
#   sh tests/cli_outputs.sh SRC_DIR OUT_DIR
#
# SRC_DIR is the directory that holds the lamlab package (a checkout's src).
set -u
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

run() {  # run NAME ARGS...: one CLI call, its CSV (if any) written to NAME.csv
    name=$1
    shift
    PYTHONPATH="$src" python3 -W error::RuntimeWarning -m lamlab.cli "$@" \
        >"$out/$name.out" 2>"$out/$name.err"
    echo $? >"$out/$name.code"
}

for theta in 0.7853981633974483 0.9424777960769379 1.0995574287564276 1.413716694115407; do
    run "regionmap-$theta" --theta "$theta" --range 3 --n 201 regionmap --out "$out/regionmap-$theta.csv"
done
run regionmap-tol1e-1 --theta 1.413716694115407 --tol 1e-1 --range 3 --n 61 regionmap \
    --out "$out/regionmap-tol1e-1.csv"
for theta in 0.7853981633974483 0.9424777960769379; do
    run "verify-envelope-$theta" --theta "$theta" --range 3 --n 61 --n-dirs 720 verify-envelope \
        --out "$out/verify-envelope-$theta.csv"
done
# theta = 0.45 pi: oracle values on Bounds cells
run verify-envelope-1.413716694115407 --theta 1.413716694115407 --n 21 verify-envelope \
    --out "$out/verify-envelope-1.413716694115407.csv"
# theta = 0.45 pi on the 61^2 grid: the dual leaves 624 cells to the rescan and its zoom
run verify-envelope-1.413716694115407-n61 --theta 1.413716694115407 --range 3 --n 61 \
    verify-envelope --out "$out/verify-envelope-1.413716694115407-n61.csv"
# theta = 0.45 pi on the 101^2 grid: 10,201 cells span several blocks of the
# dual bound, and many of them are rescanned
run verify-envelope-1.413716694115407-n101 --theta 1.413716694115407 --range 3 --n 101 \
    --n-dirs 720 verify-envelope --out "$out/verify-envelope-1.413716694115407-n101.csv"
# theta = 0.45 pi at |b|, |c| up to 1e3: the dual bound's fit at large |F|
run verify-envelope-1.413716694115407-range1e3 --theta 1.413716694115407 --range 1e3 --n 21 \
    verify-envelope --out "$out/verify-envelope-1.413716694115407-range1e3.csv"
# |b| up to 1e150: chords beyond the float range are inf, without a warning
for theta in 0.7853981633974483 1.413716694115407; do
    run "verify-envelope-$theta-range1e150" --theta "$theta" --range 1e150 --n 5 verify-envelope \
        --out "$out/verify-envelope-$theta-range1e150.csv"
done
# the smallest direction grid, which takes the same path as any other: the
# four laminate directions, the dual bound and the rescan of the cells it
# leaves open
run verify-envelope-0.9424777960769379-dirs8 --theta 0.9424777960769379 --range 3 --n 21 \
    --n-dirs 8 verify-envelope --out "$out/verify-envelope-0.9424777960769379-dirs8.csv"
# direction counts of the rescan: 24 and 25; coarse-scan chunk edges: 1001
# directions put 11 cells in a chunk, 11520 (the cap) one
for theta in 0.7853981633974483 1.413716694115407; do
    for dirs in 24 25 1001 11520; do
        run "verify-envelope-$theta-dirs$dirs" --theta "$theta" --n 9 --n-dirs "$dirs" verify-envelope \
            --out "$out/verify-envelope-$theta-dirs$dirs.csv"
    done
done
# one cell with a finite |F|^2 whose closed-form value overflows: written inf
for command in regionmap verify-envelope; do
    run "$command-overflow" --theta 1.413716694115407 --range 5e153 --n 3 "$command" \
        --out "$out/$command-overflow.csv"
done
# the (b, c) diagonal at large |b|
run regionmap-range1e6 --range 1e6 --n 21 regionmap --out "$out/regionmap-range1e6.csv"
# a shorter CSV over a longer one in the same file: the 5^2 map over the 201^2 map
run regionmap-overwrite-n201 --n 201 regionmap --out "$out/regionmap-overwrite.csv"
run regionmap-overwrite-n5 --n 5 regionmap --out "$out/regionmap-overwrite.csv"
for theta in 0.7853981633974483 0.9424777960769379 1.0995574287564276 1.2566370614359172 \
             1.413716694115407; do
    i=0
    for point in "--bc=0,0" "--bc=0.5,0.3" "--bc=-1.2,0.7" "--bc=2,-1.5" "--bc=-0.3,-2.4" \
                 "--bc=1e3,0.1" "--bc=-2.9508196721311477,-2.557377049180328" \
                 "--matrix=2,0,0,0.5" "--matrix=1,0.8,0,1" "--matrix=1,0,0,2" \
                 "--matrix=1e160,0,0,1e-160" "--bc=1e5,0.3" "--bc=1e200,0"; do
        i=$((i + 1))
        run "classify-$theta-$i" --theta "$theta" classify "$point"
        run "laminate-$theta-$i" --theta "$theta" laminate "$point"
    done
done
run hplot --theta 0.9424777960769379 hplot --zmax 3 --samples 301 --out "$out/hplot.csv"
# CSVs of many write blocks (90,000 and 100,000 rows): the streamed rows
# must give the bytes of one whole-table write
for theta in 0.7853981633974483 1.413716694115407; do
    run "regionmap-$theta-n300" --theta "$theta" --range 3 --n 300 regionmap \
        --out "$out/regionmap-$theta-n300.csv"
done
run hplot-samples100000 --theta 0.9424777960769379 hplot --zmax 3 --samples 100000 \
    --out "$out/hplot-samples100000.csv"
run whomgamma whomgamma --gamma-range=-3:3:61 --out "$out/whomgamma.csv"
# 10,001 rows: the energies are evaluated in three blocks of the write size
run whomgamma-n10001 whomgamma --gamma-range=-3:3:10001 --out "$out/whomgamma-n10001.csv"
# energies past the float range are written inf: |F|^2 overflows at the ends,
# only W_hom at +-5e153
run whomgamma-overflow whomgamma --gamma-range=-1e154:1e154:5 --out "$out/whomgamma-overflow.csv"
# the curve is written for orthogonal slips only: exit 3 at 0.3 pi
run whomgamma-0.9424777960769379 --theta 0.9424777960769379 whomgamma --gamma-range=-3:3:61 \
    --out "$out/whomgamma-0.9424777960769379.csv"
# an orthogonal frame turned by 0.4 rad, from a config file
printf '%s\n' '{"slip": {"v1": [0.9210609940028851, 0.3894183423086505],' \
    ' "v2": [-0.3894183423086505, 0.9210609940028851]}, "lambda": 0.3}' >"$out/config-rotated.json"
run whomgamma-rotated --config "$out/config-rotated.json" whomgamma --gamma-range=-3:3:61 \
    --out "$out/whomgamma-rotated.csv"
# malformed ranges: message and exit code
i=0
for range in 0:1 0:1:2:3 0:1:1e3 0:1:-1; do
    i=$((i + 1))
    run "usage-gamma-range-$i" whomgamma "--gamma-range=$range" --out "$out/usage-gamma-range-$i.csv"
done
run homogenize homogenize --gamma-bands=0.2:0.3,-0.5:0.6,0.4:1 --eps-list 1/8,1/16,1/32 \
    --out "$out/homogenize.csv"
# eps = 1/128 runs at the 4096^2 grid cap; 1/3 and 1/5 are layer periods
# that no float holds exactly
run homogenize-cap homogenize --gamma-bands=0.2:0.3,-0.5:0.6,0.4:1 --eps-list 1/64,1/128 \
    --out "$out/homogenize-cap.csv"
run homogenize-non-dyadic homogenize --gamma-bands=0.2:0.3,-0.5:0.6,0.4:1 --eps-list 1/3,1/5 \
    --out "$out/homogenize-non-dyadic.csv"
# one band at the grid cap: its soft layers reach every column
run homogenize-single-fine homogenize --gamma-bands=0.4:1 --eps-list 1/32,1/64 \
    --out "$out/homogenize-single-fine.csv"
# eps = 1/100 at the 4096^2 cap: a layer period of 40.96 grid rows
run homogenize-non-dyadic-cap homogenize --gamma-bands=0.2:0.3,-0.5:0.6,0.4:1 --eps-list 1/100 \
    --out "$out/homogenize-non-dyadic-cap.csv"
# the quotient cells-per-feature / finest feature overflows: a clean error, exit 3
run homogenize-eps1e-310 homogenize --gamma-bands=0.4:1 --eps-list 1e-310 \
    --out "$out/homogenize-eps1e-310.csv"
run homogenize-hlam1e-310 homogenize --gamma-bands=0.4:1 --eps-list 1/8 --hlam 1e-310 \
    --out "$out/homogenize-hlam1e-310.csv"
# slip vectors from a config file: v1 = e1, v2 at 2 theta = 0.6 pi from it
printf '%s\n' '{"slip": {"v1": [1.0, 0.0], "v2": [-0.30901699437494745, 0.9510565162951535]},' \
    ' "lambda": 0.4, "grid": {"range": 2, "n": 41}}' >"$out/config-vectors.json"
i=0
for point in "--bc=0,0" "--bc=0.5,0.3" "--bc=-1.2,0.7" "--matrix=2,0,0,0.5" "--matrix=1,0.8,0,1"; do
    i=$((i + 1))
    run "config-vectors-classify-$i" --config "$out/config-vectors.json" classify "$point"
    run "config-vectors-laminate-$i" --config "$out/config-vectors.json" laminate "$point"
done
run config-vectors-regionmap --config "$out/config-vectors.json" regionmap \
    --out "$out/config-vectors-regionmap.csv"
# a flag overrides the config file: theta = 0.3 pi and n = 61 from the file, n = 21 from --n
printf '%s\n' '{"slip": {"theta": 0.9424777960769379}, "grid": {"range": 2, "n": 61}}' \
    >"$out/config-theta.json"
run config-theta-regionmap --config "$out/config-theta.json" --n 21 regionmap \
    --out "$out/config-theta-regionmap.csv"
# usage errors: message and exit code
run usage-tol --tol 0 classify --bc=0,0
run usage-n --n 0 regionmap --out "$out/usage-n.csv"
run usage-bc classify --bc=1,2,3
# the CLI rejects a tolerance outside (0, inf), a direction count outside
# [8, 11520] and a nan range before the library sees them
run usage-tol-nan --tol nan classify --bc=0,0
run usage-tol-inf --tol inf classify --bc=0,0
run usage-tol-negative --tol -1 classify --bc=0,0
run usage-n-dirs --n-dirs 7 verify-envelope --out "$out/usage-n-dirs.csv"
run usage-n-dirs-cap --n-dirs 11521 verify-envelope --out "$out/usage-n-dirs-cap.csv"
run usage-n-dirs-huge --n-dirs 1000000000000000 verify-envelope \
    --out "$out/usage-n-dirs-huge.csv"
run usage-range-nan --range nan regionmap --out "$out/usage-range-nan.csv"
# a malformed number names its option; a band without its edge names the form
run usage-gamma-bands-edge homogenize --gamma-bands=0.4 --eps-list 1/4 \
    --out "$out/usage-gamma-bands-edge.csv"
run usage-number-gamma-bands homogenize --gamma-bands=x:1 --eps-list 1/4 \
    --out "$out/usage-number-gamma-bands.csv"
run usage-number-eps-list homogenize --gamma-bands=0.4:1 --eps-list x \
    --out "$out/usage-number-eps-list.csv"
run usage-number-hlam homogenize --gamma-bands=0.4:1 --eps-list 1/4 --hlam x \
    --out "$out/usage-number-hlam.csv"
run usage-number-bc classify --bc=x,0
run usage-number-matrix classify --matrix=1,0,0,x
run usage-number-gamma-range whomgamma --gamma-range=0:x:3 --out "$out/usage-number-gamma-range.csv"
# a band layout or layer period the microstructure cannot take names its option
run usage-gamma-bands-order homogenize --gamma-bands=0.4:1,0.2:1 --eps-list 1/4 \
    --out "$out/usage-gamma-bands-order.csv"
run usage-gamma-bands-end homogenize --gamma-bands=0.4:0.5 --eps-list 1/4 \
    --out "$out/usage-gamma-bands-end.csv"
run usage-eps-list-above homogenize --gamma-bands=0.4:1 --eps-list 2 \
    --out "$out/usage-eps-list-above.csv"
# a config value that is not a number names its key
i=0
for config in '{"lambda": "x"}' '{"grid": {"n": "x"}}' '{"tolerances": {"manifold": "x"}}' \
              '{"slip": {"v1": ["x", 0], "v2": [0, 1]}}'; do
    i=$((i + 1))
    printf '%s\n' "$config" >"$out/config-number-$i.json"
    run "usage-config-number-$i" --config "$out/config-number-$i.json" classify --bc=0,0
done
