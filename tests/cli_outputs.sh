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
for theta in 0.7853981633974483 0.9424777960769379 1.0995574287564276 1.413716694115407; do
    i=0
    for point in "--bc=0,0" "--bc=0.5,0.3" "--bc=-1.2,0.7" "--bc=2,-1.5" "--bc=-0.3,-2.4" \
                 "--bc=1e3,0.1" "--bc=-2.9508196721311477,-2.557377049180328" \
                 "--matrix=2,0,0,0.5" "--matrix=1,0.8,0,1" "--matrix=1,0,0,2" \
                 "--matrix=1e160,0,0,1e-160"; do
        i=$((i + 1))
        run "classify-$theta-$i" --theta "$theta" classify "$point"
        run "laminate-$theta-$i" --theta "$theta" laminate "$point"
    done
done
run hplot --theta 0.9424777960769379 hplot --zmax 3 --samples 301 --out "$out/hplot.csv"
run whomgamma whomgamma --gamma-range=-3:3:61 --out "$out/whomgamma.csv"
run homogenize homogenize --gamma-bands=0.2:0.3,-0.5:0.6,0.4:1 --eps-list 1/8,1/16,1/32 \
    --out "$out/homogenize.csv"
