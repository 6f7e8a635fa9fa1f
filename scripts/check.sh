#!/usr/bin/env bash
# Deeper verification tier than the plain `ctest` loop:
#   1. ASan+UBSan build, full labeled suite + bfhrf_verify differential run
#      + the sharding/persistence oracle at 1/2/4/8 threads (store shapes
#      1, 2, 4 and 8) + the serve daemon loopback smoke + a CLI walk that
#      builds a sharded store at 4 threads (4 shards on a multi-core
#      host), saves it as one table, and reloads it zero-copy at 1 and 4
#      threads (raw and compressed keys; also, at 1 thread, over a query
#      file with its taxa in another order), saves the index of a 1-thread
#      build and reloads it at 4 threads, and requires the 4-thread save,
#      a second 4-thread save and the 1-thread save to be the same bytes
#      (raw and compressed keys), streamed CLI runs at 3, 4 and 8 threads
#      diffed against 1 thread (a generated corpus and a hand-written
#      decorated Newick file, which must answer as its twin without the
#      unary group), a generated corpus answered from its Newick text,
#      from its .p2v vector form (at 3, 4 and 8 threads) and from its
#      NEXUS form (at 1, 3, 4 and 8 threads), a truncated copy of that
#      .p2v that must fail, not hang, at 4 and 8 threads, a failed
#      --emit-vector that must leave the old .p2v corpus as it was, its
#      --matrix output at 3, 4 and 8 threads against 1 thread, and the
#      engine --matrix --stats names for a dense and a sparse universe.
#      Before any of that, with the default build: every flag
#      that sizes threads, queues or sockets refuses hostile values
#      while the arguments are read
#   2. TSan build, concurrency-sensitive labels only (parallel, obs,
#      serve, codec) + bfhrf_verify differential run (concurrent readers
#      of one table across its 1..8 thread sweep) + the persistence oracle
#      at 1/2/4/8 threads (lanes flushing shards under per-shard locks)
#      + the serve daemon loopback smoke
#   3. BFHRF_OBS=OFF build, full suite (instrumentation compiled out)
#   4. BFHRF_DISABLE_SIMD=ON build, full suite + bfhrf_verify (portable
#      SWAR paths and the portable fingerprint kernel only; proves
#      dispatch-level equivalence end to end) + its CLI saving the
#      index files of tier 1's walk byte for byte and answering
#      from the default build's files exactly as the default build does
#      (the portable kernel gives the PCLMULQDQ kernel's fingerprints)
#   5. perfbench self-test (perfbench/selftest.py): builds the benchmark
#      harness from this checkout and runs every workload on tiny corpora,
#      so a change to an engine call the benchmark makes fails here
# Run from the repo root. Each tier uses its own build directory (see
# CMakePresets.json), so the default ./build is left untouched.
set -euo pipefail

cd "$(dirname "$0")/.."

run() {
  echo
  echo "=== $* ==="
  "$@"
}

# Differential verification workload (docs/TESTING.md): every engine and
# mode over a generated collection, full matrices cross-checked
# bit-for-bit. Size can be overridden, e.g. BFHRF_VERIFY_ARGS="n=128 r=64".
# The 1..8 thread sweep drives both all-pairs engines (bit-matrix dense
# and sparse) and the BFHRF span and Newick-file ingest paths at each
# count under the sanitizers: 30 engine configs.
VERIFY_ARGS=${BFHRF_VERIFY_ARGS:-"n=64 r=32 q=32 --threads 1,2,4,8"}

# Persistence oracle workload: a build at each --threads count (each count
# gives its own store shape) vs single-table in both key encodings, and
# every shape round-tripped through the BFHMAP index (save, mmap, query)
# — all compared bit-for-bit, and every save byte-identical to the inline
# build's file.
PERSIST_ARGS=${BFHRF_PERSIST_ARGS:-"n=24 r=24 q=10"}

# Scratch dirs for the CLI index walk and the serve loopback smoke.
# Inputs for both are generated ONCE with the default (uninstrumented)
# build up front; the sanitizer-built daemon/client binaries are then
# driven against the same files in their own tiers.
PERSIST_DIR=$(mktemp -d)
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "${PERSIST_DIR}" "${SERVE_DIR}"' EXIT

run cmake -B build -S .
run cmake --build build -j "$(nproc)" --target bfhrf_generate bfhrf_cli \
  rf_matrix_tool bfhrf_serve bfhrf_loadgen bfhrf_verify

# Hostile flag values: each is refused while the arguments are read, with
# the exit status the tool gives argument errors and a message naming the
# flag. -r (and -q) name a file that does not exist, so a parser that let
# a value through would fail on the missing file before any engine,
# socket or thread starts, and its message would not name the flag.
# bfhrf_verify exits 2 on argument errors (1 means a divergence).
expect_flag_error() {
  local status=$1 flag=$2
  shift 2
  local got=0
  "$@" > /dev/null 2> "${PERSIST_DIR}/flag.err" || got=$?
  if [[ ${got} -ne ${status} ]] ||
     ! grep -qF -- "${flag}:" "${PERSIST_DIR}/flag.err"; then
    echo "hostile ${flag}: want exit ${status} naming the flag, got ${got}:"
    cat "${PERSIST_DIR}/flag.err"
    return 1
  fi
}
echo
echo "=== hostile flag values ==="
NO_FILE="${PERSIST_DIR}/missing.nwk"
expect_flag_error 1 -t ./build/examples/bfhrf_cli -r "${NO_FILE}" -t 100000
expect_flag_error 1 -t ./build/examples/bfhrf_cli -r "${NO_FILE}" -t -1
expect_flag_error 1 -t ./build/examples/rf_matrix_tool -r "${NO_FILE}" \
  -t 100000
expect_flag_error 1 --port ./build/tools/bfhrf_serve -r "${NO_FILE}" \
  --port 70000
expect_flag_error 1 --workers ./build/tools/bfhrf_serve -r "${NO_FILE}" \
  --workers -1
expect_flag_error 1 --queue ./build/tools/bfhrf_serve -r "${NO_FILE}" \
  --queue abc
expect_flag_error 1 --threads ./build/tools/bfhrf_serve -r "${NO_FILE}" \
  --threads 100000
expect_flag_error 1 --port ./build/tools/bfhrf_loadgen -q "${NO_FILE}" \
  --port 70000
expect_flag_error 1 --clients ./build/tools/bfhrf_loadgen -q "${NO_FILE}" \
  --inprocess -r "${NO_FILE}" --clients abc
expect_flag_error 1 --workers ./build/tools/bfhrf_loadgen -q "${NO_FILE}" \
  --inprocess -r "${NO_FILE}" --workers 5000
expect_flag_error 1 --requests ./build/tools/bfhrf_loadgen -q "${NO_FILE}" \
  --inprocess -r "${NO_FILE}" --requests -5
expect_flag_error 1 --requests ./build/tools/bfhrf_loadgen -q "${NO_FILE}" \
  --inprocess -r "${NO_FILE}" --requests 1000000000000
expect_flag_error 2 --threads ./build/tools/bfhrf_verify --files \
  "${NO_FILE}" --threads 100000
run ./build/examples/bfhrf_generate --preset variable-trees -n 32 -r 24 \
  --seed 7 -o "${SERVE_DIR}/ref.nwk"
run ./build/examples/bfhrf_generate --preset variable-trees -n 32 -r 8 \
  --seed 11 -o "${SERVE_DIR}/q.nwk"
./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" \
  -q "${SERVE_DIR}/q.nwk" > "${SERVE_DIR}/expected.tsv"

# Loopback e2e smoke for a sanitizer-built daemon: start -> load index ->
# query -> hot-swap (Publish opcode onto the saved index) -> query ->
# save a smaller index over the file the daemon now maps -> query ->
# shutdown. Every query TSV must be byte-identical to the direct CLI
# answers: the save renames a new file into place, so the daemon keeps
# serving the old one (an in-place rewrite would shrink the mapping under
# it: SIGBUS). The daemon must exit 0 (the `wait` is the sanitizer gate).
serve_smoke() {
  local build_dir=$1
  local out="${SERVE_DIR}/serve.out"
  : > "${out}"
  ./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" \
    --save-index "${SERVE_DIR}/ref.bfh" > /dev/null
  "${build_dir}/tools/bfhrf_serve" -r "${SERVE_DIR}/ref.nwk" --workers 2 \
    > "${out}" 2>&1 &
  local pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^READY port=\([0-9]*\).*/\1/p' "${out}")
    [[ -n "${port}" ]] && break
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "serve_smoke: daemon never became ready:"
    cat "${out}"
    kill "${pid}" 2>/dev/null || true
    return 1
  fi
  local client="${build_dir}/tools/bfhrf_client"
  "${client}" --port "${port}" ping
  "${client}" --port "${port}" query "${SERVE_DIR}/q.nwk" \
    2> /dev/null > "${SERVE_DIR}/got_before.tsv"
  diff "${SERVE_DIR}/expected.tsv" "${SERVE_DIR}/got_before.tsv"
  "${client}" --port "${port}" publish "${SERVE_DIR}/ref.bfh"
  "${client}" --port "${port}" query "${SERVE_DIR}/q.nwk" \
    2> /dev/null > "${SERVE_DIR}/got_after.tsv"
  diff "${SERVE_DIR}/expected.tsv" "${SERVE_DIR}/got_after.tsv"
  ./build/examples/bfhrf_cli -r "${SERVE_DIR}/q.nwk" \
    --save-index "${SERVE_DIR}/ref.bfh" > /dev/null
  "${client}" --port "${port}" query "${SERVE_DIR}/q.nwk" \
    2> /dev/null > "${SERVE_DIR}/got_resaved.tsv"
  diff "${SERVE_DIR}/expected.tsv" "${SERVE_DIR}/got_resaved.tsv"
  "${client}" --port "${port}" shutdown
  wait "${pid}"
}

run cmake --preset asan-ubsan
run cmake --build --preset asan-ubsan -j "$(nproc)"
run ctest --preset asan-ubsan
# shellcheck disable=SC2086  # VERIFY_ARGS is a word list by design
run ./build-asan/tools/bfhrf_verify --generate ${VERIFY_ARGS}
# shellcheck disable=SC2086
run ./build-asan/tools/bfhrf_verify --persist ${PERSIST_ARGS} --threads 1,2,4,8
run serve_smoke ./build-asan

# End-to-end index walk: build a small sharded store with the CLI (-t 4
# gives 4 shards on a multi-core host), persist it in the mmap-able
# one-table layout, reload it zero-copy at 1 thread and at 4 (four
# lanes querying the mapped table; only the direct -t 4 run queries
# shards), and require byte-identical query output from the mapped view.
# The sanitizer
# presets build without examples (BFHRF_BUILD_EXAMPLES=OFF), so this
# uses the default tree — the mmap + asan interaction itself is covered
# by the --persist oracle above, which maps index files under ASan.
# --load-index takes the taxon namespace from -r (an index stores no
# labels), so it must also answer a query file that lists the taxa in
# another order exactly as a direct run does.
echo
echo "=== bfhrf_cli sharded build -> index save -> mmap reload ==="
./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 4 \
  --save-index "${PERSIST_DIR}/ref_t4_raw.bfhmap" > "${PERSIST_DIR}/direct.tsv"
./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" \
  --load-index "${PERSIST_DIR}/ref_t4_raw.bfhmap" \
  -q "${SERVE_DIR}/ref.nwk" > "${PERSIST_DIR}/mapped.tsv"
./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 4 \
  --load-index "${PERSIST_DIR}/ref_t4_raw.bfhmap" \
  -q "${SERVE_DIR}/ref.nwk" > "${PERSIST_DIR}/mapped_t4.tsv"
run diff "${PERSIST_DIR}/direct.tsv" "${PERSIST_DIR}/mapped.tsv"
run diff "${PERSIST_DIR}/direct.tsv" "${PERSIST_DIR}/mapped_t4.tsv"

# The same walk with compressed keys: a sharded build of the sparse key
# encoding, saved and reloaded at 1 and 4 threads, must answer exactly as
# the raw direct run.
echo
echo "=== bfhrf_cli --compressed-keys sharded build -> index save -> reload ==="
./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 4 \
  --compressed-keys --save-index "${PERSIST_DIR}/ref_t4_sparse.bfhmap" \
  > "${PERSIST_DIR}/sparse_direct.tsv"
./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" \
  --load-index "${PERSIST_DIR}/ref_t4_sparse.bfhmap" \
  -q "${SERVE_DIR}/ref.nwk" > "${PERSIST_DIR}/sparse_mapped.tsv"
./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 4 \
  --load-index "${PERSIST_DIR}/ref_t4_sparse.bfhmap" \
  -q "${SERVE_DIR}/ref.nwk" > "${PERSIST_DIR}/sparse_mapped_t4.tsv"
run diff "${PERSIST_DIR}/direct.tsv" "${PERSIST_DIR}/sparse_direct.tsv"
run diff "${PERSIST_DIR}/direct.tsv" "${PERSIST_DIR}/sparse_mapped.tsv"
run diff "${PERSIST_DIR}/direct.tsv" "${PERSIST_DIR}/sparse_mapped_t4.tsv"

# A 1-thread build's file, reloaded by four query lanes. A
# save depends only on what the store holds, so it must be the bytes of
# the 4-thread build's save above and of a second 4-thread save, in both
# key encodings.
echo
echo "=== bfhrf_cli one-table build -> index save -> reload at 4 threads ==="
for keys in raw sparse; do
  flag=""
  if [ "${keys}" = sparse ]; then
    flag="--compressed-keys"
  fi
  # shellcheck disable=SC2086
  ./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 1 ${flag} \
    --save-index "${PERSIST_DIR}/ref_t1_${keys}.bfhmap" \
    > "${PERSIST_DIR}/t1_${keys}_direct.tsv"
  ./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 4 \
    --load-index "${PERSIST_DIR}/ref_t1_${keys}.bfhmap" \
    -q "${SERVE_DIR}/ref.nwk" > "${PERSIST_DIR}/t1_${keys}_mapped_t4.tsv"
  run diff "${PERSIST_DIR}/direct.tsv" "${PERSIST_DIR}/t1_${keys}_direct.tsv"
  run diff "${PERSIST_DIR}/direct.tsv" \
    "${PERSIST_DIR}/t1_${keys}_mapped_t4.tsv"
  # shellcheck disable=SC2086
  ./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 4 ${flag} \
    --save-index "${PERSIST_DIR}/ref_t4_${keys}_again.bfhmap" > /dev/null
  run cmp "${PERSIST_DIR}/ref_t1_${keys}.bfhmap" \
    "${PERSIST_DIR}/ref_t4_${keys}.bfhmap"
  run cmp "${PERSIST_DIR}/ref_t4_${keys}.bfhmap" \
    "${PERSIST_DIR}/ref_t4_${keys}_again.bfhmap"
done

echo
echo "=== bfhrf_cli --load-index with the query taxa in another order ==="
printf '%s\n' '((A,B),(C,D),(E,F));' '((A,C),(B,D),(E,F));' \
  '((A,B),(C,E),(D,F));' > "${PERSIST_DIR}/order_ref.nwk"
printf '%s\n' '((E,A),(B,C),(D,F));' '((A,C),(B,D),(E,F));' \
  > "${PERSIST_DIR}/order_q.nwk"
./build/examples/bfhrf_cli -r "${PERSIST_DIR}/order_ref.nwk" \
  -q "${PERSIST_DIR}/order_q.nwk" \
  --save-index "${PERSIST_DIR}/order.bfhmap" > "${PERSIST_DIR}/order_direct.tsv"
./build/examples/bfhrf_cli -r "${PERSIST_DIR}/order_ref.nwk" \
  --load-index "${PERSIST_DIR}/order.bfhmap" \
  -q "${PERSIST_DIR}/order_q.nwk" > "${PERSIST_DIR}/order_mapped.tsv"
run diff "${PERSIST_DIR}/order_direct.tsv" "${PERSIST_DIR}/order_mapped.tsv"

# Streamed Newick ingest extracts splits from the record text on every
# lane; answers must not depend on the lane count (3 and 8 are not powers
# of two, and 8 is more lanes than most hosts have cores), byte for byte. The
# decorated file has quoted labels, nested comments, supports, lengths, a
# unary group and degree-2 and degree-3 roots. The split pass folds the
# unary group like any other and drops the split it repeats, so the file
# must answer exactly as its twin, where the group is written without
# its extra parentheses.
echo
echo "=== bfhrf_cli streamed -t 3, 4, 8 vs -t 1 ==="
for t in 1 3 4 8; do
  ./build/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" \
    -q "${SERVE_DIR}/q.nwk" -t "${t}" > "${PERSIST_DIR}/t${t}.tsv"
done
for t in 3 4 8; do
  run diff "${PERSIST_DIR}/t1.tsv" "${PERSIST_DIR}/t${t}.tsv"
done
cat > "${PERSIST_DIR}/decorated.nwk" <<'NEWICK'
[decorated [nested] records]
('Homo sapiens':0.1,('Pan [x]':2.5e-3,(Gorilla,'O''Brien':1E+2)95:0.5)0.87,
 (Macaca,Papio)'node label');
((('Homo sapiens',Gorilla)),('Pan [x]','O''Brien'),(Macaca,Papio)[c;]) ;
	(Macaca:1,(Papio:2,('Homo sapiens',(Gorilla,('Pan [x]','O''Brien')))));
NEWICK
cat > "${PERSIST_DIR}/decorated_twin.nwk" <<'NEWICK'
[decorated [nested] records]
('Homo sapiens':0.1,('Pan [x]':2.5e-3,(Gorilla,'O''Brien':1E+2)95:0.5)0.87,
 (Macaca,Papio)'node label');
(('Homo sapiens',Gorilla),('Pan [x]','O''Brien'),(Macaca,Papio)[c;]) ;
	(Macaca:1,(Papio:2,('Homo sapiens',(Gorilla,('Pan [x]','O''Brien')))));
NEWICK
for file in decorated decorated_twin; do
  for t in 1 3 4 8; do
    ./build/examples/bfhrf_cli -r "${PERSIST_DIR}/${file}.nwk" -t "${t}" \
      > "${PERSIST_DIR}/${file}_t${t}.tsv"
  done
done
for t in 1 3 4 8; do
  run diff "${PERSIST_DIR}/decorated_t1.tsv" "${PERSIST_DIR}/decorated_t${t}.tsv"
  run diff "${PERSIST_DIR}/decorated_t${t}.tsv" \
    "${PERSIST_DIR}/decorated_twin_t${t}.tsv"
done

# The Newick front end against code it shares nothing with: the same
# corpus answered from its text and from its phylo2vec form, whose rows
# go through the vector extractor.
echo
echo "=== bfhrf_cli Newick vs .p2v answers ==="
./build/examples/bfhrf_generate --preset avian -n 48 -r 200 --seed 13 \
  -o "${PERSIST_DIR}/avian.nwk"
./build/examples/bfhrf_cli -r "${PERSIST_DIR}/avian.nwk" \
  --emit-vector "${PERSIST_DIR}/avian.p2v"
./build/examples/bfhrf_cli -r "${PERSIST_DIR}/avian.nwk" -t 4 \
  > "${PERSIST_DIR}/avian_newick.tsv"
for t in 3 4 8; do
  ./build/examples/bfhrf_cli -r "${PERSIST_DIR}/avian.p2v" -t "${t}" \
    > "${PERSIST_DIR}/avian_vector_t${t}.tsv"
  run diff "${PERSIST_DIR}/avian_newick.tsv" \
    "${PERSIST_DIR}/avian_vector_t${t}.tsv"
done

# A reader that fails mid-stream must fail the run, not hang it: every
# lane stops claiming once one has thrown, and the reader's error is the
# one reported, as a build (-r) and as a query (-q).
echo
echo "=== bfhrf_cli truncated .p2v at -t 4 and -t 8 ==="
head -c $(( $(wc -c < "${PERSIST_DIR}/avian.p2v") * 3 / 5 )) \
  "${PERSIST_DIR}/avian.p2v" > "${PERSIST_DIR}/avian_truncated.p2v"
for t in 4 8; do
  for args in "-r ${PERSIST_DIR}/avian_truncated.p2v" \
              "-r ${PERSIST_DIR}/avian.p2v -q ${PERSIST_DIR}/avian_truncated.p2v"; do
    status=0
    # shellcheck disable=SC2086  # args is a word list by design
    timeout 60 ./build/examples/bfhrf_cli ${args} -t "${t}" > /dev/null \
      2> "${PERSIST_DIR}/truncated.err" || status=$?
    run test "${status}" -eq 1
    run grep -q "truncated record" "${PERSIST_DIR}/truncated.err"
  done
done

# The same trees written as NEXUS: the CLI loads its TREES block into
# memory, so this walks the in-memory span build and query, inline and on
# 3, 4 and 8 lanes.
echo
echo "=== bfhrf_cli NEXUS vs Newick answers ==="
./build/examples/bfhrf_generate --preset avian -n 48 -r 200 --seed 13 \
  -o "${PERSIST_DIR}/avian.nex"
for t in 1 3 4 8; do
  ./build/examples/bfhrf_cli -r "${PERSIST_DIR}/avian.nex" -t "${t}" \
    > "${PERSIST_DIR}/avian_nexus_t${t}.tsv"
  run diff "${PERSIST_DIR}/avian_newick.tsv" \
    "${PERSIST_DIR}/avian_nexus_t${t}.tsv"
done

# .p2v corpora are replaced atomically: an --emit-vector that fails on its
# third tree (a star over all 48 taxa, which has no phylo2vec form) exits
# 1 and leaves the old corpus byte for byte, with no temp file beside it.
echo
echo "=== bfhrf_cli failed --emit-vector keeps the old corpus ==="
cp "${PERSIST_DIR}/avian.p2v" "${PERSIST_DIR}/avian_saved.p2v"
{ head -n 2 "${PERSIST_DIR}/avian.nwk"; echo "($(seq -s, -f 't%g' 0 47));"; } \
  > "${PERSIST_DIR}/avian_multi.nwk"
status=0
./build/examples/bfhrf_cli -r "${PERSIST_DIR}/avian_multi.nwk" \
  --emit-vector "${PERSIST_DIR}/avian.p2v" > /dev/null 2>&1 || status=$?
run test "${status}" -eq 1
run cmp "${PERSIST_DIR}/avian.p2v" "${PERSIST_DIR}/avian_saved.p2v"
run test -z "$(find "${PERSIST_DIR}" -name 'avian.p2v.tmp.*')"

# The all-pairs matrix of the same corpus: tiles scheduled over 3, 4 and
# 8 lanes (a lane count that is not a power of two, and more lanes than
# most hosts have cores) must fill exactly the PHYLIP bytes one thread
# writes.
echo
echo "=== bfhrf_cli --matrix -t 3, 4, 8 vs -t 1 ==="
for t in 1 3 4 8; do
  ./build/examples/bfhrf_cli -r "${PERSIST_DIR}/avian.nwk" --matrix -t "${t}" \
    > "${PERSIST_DIR}/avian_matrix_t${t}.phy"
done
for t in 3 4 8; do
  run cmp "${PERSIST_DIR}/avian_matrix_t1.phy" \
    "${PERSIST_DIR}/avian_matrix_t${t}.phy"
done

# --matrix --stats reports the universe and the engine Auto picked: dense
# rows for the avian corpus (density 0.029), sorted id lists for a wide,
# discordant one (n = 400, density 0.0022, below the 1/256 crossover).
echo
echo "=== bfhrf_cli --matrix --stats names the engine ==="
./build/examples/bfhrf_cli -r "${PERSIST_DIR}/avian.nwk" --matrix --stats \
  > /dev/null 2> "${PERSIST_DIR}/avian_matrix.err"
run grep -qx "# engine: dense" "${PERSIST_DIR}/avian_matrix.err"
./build/examples/bfhrf_generate --preset avian -n 400 -r 600 --moves 300 \
  --seed 3 -o "${PERSIST_DIR}/wide.nwk"
./build/examples/bfhrf_cli -r "${PERSIST_DIR}/wide.nwk" --matrix --stats \
  > /dev/null 2> "${PERSIST_DIR}/wide_matrix.err"
run grep -qx "# engine: sparse" "${PERSIST_DIR}/wide_matrix.err"

run cmake --preset tsan
run cmake --build --preset tsan -j "$(nproc)"
run ctest --preset tsan
# shellcheck disable=SC2086
run ./build-tsan/tools/bfhrf_verify --generate ${VERIFY_ARGS}
# shellcheck disable=SC2086  # sharded builds' flush locks under TSan
run ./build-tsan/tools/bfhrf_verify --persist ${PERSIST_ARGS} --threads 1,2,4,8
run serve_smoke ./build-tsan

run cmake --preset obs-off
run cmake --build --preset obs-off -j "$(nproc)"
run ctest --preset obs-off

# Tier 4: portable-SWAR build (BFHRF_DISABLE_SIMD=ON, no vector intrinsics
# compiled at all), full suite + the qc differential oracle — proves the
# group-probed hash, bitset and fingerprint kernels are bit-identical
# without SIMD.
run cmake --preset simd-off
run cmake --build --preset simd-off -j "$(nproc)"
run ctest --preset simd-off
# shellcheck disable=SC2086
run ./build-simd-off/tools/bfhrf_verify --generate ${VERIFY_ARGS}

# Where a key sits in an index file is a function of its fingerprint, so
# the portable kernel must give the PCLMULQDQ kernel's bits: an index
# file the default build saved in tier 1's walk must answer under the
# simd-off CLI exactly as under the default build (other bits would send
# every lookup to the wrong group), and the simd-off CLI must save the
# same bytes. Raw and compressed keys.
echo
echo "=== simd-off bfhrf_cli over the default build's indexes ==="
for keys in raw sparse; do
  flag=""
  if [ "${keys}" = sparse ]; then
    flag="--compressed-keys"
  fi
  ./build-simd-off/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 1 \
    --load-index "${PERSIST_DIR}/ref_t1_${keys}.bfhmap" \
    -q "${SERVE_DIR}/ref.nwk" > "${PERSIST_DIR}/simd_off_${keys}_mapped.tsv"
  run diff "${PERSIST_DIR}/t1_${keys}_direct.tsv" \
    "${PERSIST_DIR}/simd_off_${keys}_mapped.tsv"
  # shellcheck disable=SC2086
  ./build-simd-off/examples/bfhrf_cli -r "${SERVE_DIR}/ref.nwk" -t 1 ${flag} \
    --save-index "${PERSIST_DIR}/simd_off_${keys}.bfhmap" > /dev/null
  run cmp "${PERSIST_DIR}/ref_t1_${keys}.bfhmap" \
    "${PERSIST_DIR}/simd_off_${keys}.bfhmap"
done

# Tier 5: the benchmark harness builds against the engine and its
# workloads still run, reproduce and report their metrics.
run python3 perfbench/selftest.py

# Optional tier 6: bench regression gate. Opt in by pointing
# BFHRF_BENCH_BASELINE at a known-good BENCH_*.json export and
# BFHRF_BENCH_CANDIDATE at a fresh one (tolerance override:
# BFHRF_BENCH_TOLERANCE, default 0.15 relative).
if [[ -n "${BFHRF_BENCH_BASELINE:-}" && -n "${BFHRF_BENCH_CANDIDATE:-}" ]]; then
  run python3 scripts/bench_compare.py \
    "${BFHRF_BENCH_BASELINE}" "${BFHRF_BENCH_CANDIDATE}" \
    --tolerance "${BFHRF_BENCH_TOLERANCE:-0.15}"
fi

echo
echo "check.sh: all tiers passed"
