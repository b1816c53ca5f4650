#!/bin/sh
# CI entry point, split into a fast-signal tier and a heavy-stress tier.
#
# Usage: scripts/ci.sh [--fast|--full]   (from the repository root)
#
#   --fast   build + full unit/property suite + the typed-switch check
#            (no Hashtbl in the filter machine's instruction type) + the
#            one-oracle grep (no policy-state decision called outside
#            Request.oracle in lib/) + the one-encoder grep (no request record written
#            outside Request.append/sink in lib/) + the one-table grep
#            (Decision_cache.find/add called only on the packet hook's
#            path in lib/) + strict policy lint (including the phased
#            examples and the deliberate-loosening rejection check) + the
#            lsmbench smoke run (outcome oracle on all four workloads).
#            This is the per-compiler signal job.
#   --full   everything the fast tier skips: the bench regression gate,
#            a decision-cache bench smoke, journal artifact verification,
#            the cache/equivalence/plane/journal/sim stress suites, the
#            three seeded simulation sweeps (plane, phase and dispatcher
#            lanes), the plane scaling smoke and the
#            protego-synth record->synthesize->verify closed loop (fresh
#            plane and LSM-lane recordings + the committed fixture
#            pair).  Runs once, gated on the fast jobs.
#
# With no argument both tiers run back to back (local use).
set -eu

cd "$(dirname "$0")/.."

mode="${1:-both}"
case "$mode" in
    --fast) mode=fast ;;
    --full) mode=full ;;
    both) ;;
    *) echo "usage: scripts/ci.sh [--fast|--full]" >&2; exit 2 ;;
esac

# _build must never be committed.
if git ls-files --error-unmatch _build >/dev/null 2>&1; then
    echo "CI: _build/ is tracked in the git index; run 'git rm -r --cached _build'" >&2
    exit 1
fi

fast_tier() {
    echo "==> dune build"
    dune build

    echo "==> dune runtest"
    dune runtest

    # Typed switch tables: a switch instruction carries an immutable
    # Pfm.table, never a Hashtbl, whose lookups hash and compare
    # polymorphically and which clones would share mutable.
    echo "==> typed switch tables (no Hashtbl in Pfm.insn)"
    insn=$(awk '/^type insn/ { on = 1 } on && /^$/ { exit } on' lib/filter/pfm.mli)
    if [ -z "$insn" ]; then
        echo "CI: no 'type insn' in lib/filter/pfm.mli" >&2
        exit 1
    fi
    if echo "$insn" | grep -n 'Hashtbl'; then
        echo "CI: the instruction type in lib/filter/pfm.mli mentions Hashtbl" >&2
        exit 1
    fi

    # One reference oracle for the four policy-state hooks: in lib/, only
    # Request.oracle may call the decision procedures Policy_state
    # defines.  A second caller is a copy of the oracle that can drift
    # from it.  lsmbench/ keeps its own oracle on purpose and is not
    # searched.
    echo "==> one reference oracle (Request.oracle) in lib/"
    copies=$(find lib -name '*.ml' | sort | xargs awk '
        FNR == 1 { in_oracle = 0 }
        /^let / {
            in_oracle = (FILENAME == "lib/protego/request.ml" && $2 == "oracle")
        }
        /(^|[^A-Za-z0-9_])(mount_decision|umount_decision|bind_allowed|ppp_ioctl_decision)([^A-Za-z0-9_]|$)/ {
            if (FILENAME == "lib/protego/policy_state.ml" && /^let /) next
            if (!in_oracle) print FILENAME ":" FNR ": " $0
        }')
    if [ -n "$copies" ]; then
        echo "$copies"
        echo "CI: a policy-state decision is called outside Request.oracle" >&2
        exit 1
    fi

    # One request encoder: in lib/, only Request.append (kind-1 plane
    # records) and Request.sink (kind-3 LSM records) may call the
    # journal's per-hook request appenders, so what a record stores is
    # written beside Request.of_journal, the one decoder.  Journal's own
    # definitions are not calls.
    echo "==> one request encoder (Request.append, Request.sink) in lib/"
    copies=$(find lib -name '*.ml' | sort | xargs grep -nE \
            '(^|[^A-Za-z0-9_])(append|sink)_(mount|umount|bind|ppp)([^A-Za-z0-9_]|$)' \
        | grep -v '^lib/protego/request\.ml:' \
        | grep -vE '^lib/journal/journal\.ml:[0-9]+:let ') || true
    if [ -n "$copies" ]; then
        echo "$copies"
        echo "CI: a request record is encoded outside Request.append/Request.sink" >&2
        exit 1
    fi

    # One decision table: the packet hook's.  A request hook's compiled
    # program decides in a few instructions, about what a table lookup
    # costs, so in lib/ Decision_cache.find and .add (under any module
    # alias, and never through an open or include of the module) may be
    # called only inside Decider.decide_cached, and that only inside
    # Pfm_dispatch.decide_nf_output: the packet hook's path.  Comments
    # and string literals are not calls.
    echo "==> one decision table (the packet hook's) in lib/"
    names=$( { echo Decision_cache; find lib -name '*.ml' -exec sed -n \
            's/^ *module \([A-Z][A-Za-z0-9_]*\) *= *\([A-Za-z0-9_]*\.\)*Decision_cache *$/\1/p' \
            {} + ; } | sort -u | paste -sd'|' -)
    copies=$(find lib -name '*.ml' | sort | xargs awk -v names="$names" -v q="'" '
        # The line without its comments, string literals and the
        # character literals of a double quote ([q] is a single quote).
        function code(line,   out, i, c) {
            out = ""
            instr = 0
            for (i = 1; i <= length(line); i++) {
                c = substr(line, i, 1)
                if (depth == 0 && instr) {
                    if (c == "\\") i++
                    else if (c == "\"") instr = 0
                } else if (depth == 0 && substr(line, i, 3) == q "\"" q) i += 2
                else if (depth == 0 && substr(line, i, 4) == q "\\\"" q) i += 3
                else if (depth == 0 && c == "\"") instr = 1
                else if (substr(line, i, 2) == "(*") { depth++; i++ }
                else if (depth > 0 && substr(line, i, 2) == "*)") { depth--; i++ }
                else if (depth == 0) out = out c
            }
            return out
        }
        FNR == 1 { fn = ""; depth = 0 }
        /^let / { fn = ($2 == "rec") ? $3 : $2 }
        {
            at = FILENAME ":" FNR ": " $0
            line = code($0)
        }
        line ~ /(^|[^A-Za-z0-9_])(open|include)!? +([A-Za-z0-9_]+\.)*Decision_cache([^A-Za-z0-9_]|$)/ {
            print at
            next
        }
        line ~ "(^|[^A-Za-z0-9_])(" names ")\\.(find|add)([^A-Za-z0-9_]|$)" {
            if (!(FILENAME == "lib/protego/decider.ml" && fn == "decide_cached"))
                print at
        }
        line ~ /(^|[^A-Za-z0-9_])decide_cached([^A-Za-z0-9_]|$)/ {
            if (FILENAME == "lib/protego/decider.ml" && /^let decide_cached /) next
            if (!(FILENAME == "lib/protego/pfm_dispatch.ml" && fn == "decide_nf_output"))
                print at
        }')
    if [ -n "$copies" ]; then
        echo "$copies"
        echo "CI: the decision table is used off the packet hook's path" >&2
        exit 1
    fi

    # --prove runs the symbolic equivalence prover over every compilable
    # source: each production compiler's output must be proven equal to the
    # naive linear compilation.  output.ports.chain is a run of singleton
    # --dport rules, which the netfilter compiler dispatches through one
    # switch: this is that switch's translation validation.  Under --strict an Unknown (not just a
    # refutation) also fails, so the prover must actually discharge the
    # example policies, not time out on them.
    echo "==> protego-lint --strict --prove over the example policies"
    ./_build/default/bin/lint.exe \
        --fstab examples/policies/fstab \
        --binds examples/policies/bind.map \
        --delegation examples/policies/sudoers \
        --accounts examples/policies/accounts \
        --ppp examples/policies/options.ppp \
        --netfilter output=examples/policies/output.chain \
        --netfilter ports=examples/policies/output.ports.chain \
        --strict --prove

    # The phased bind-then-drop example must lint clean and prove: every
    # phase<= guard is downward closed, so PL-PH001 has nothing to flag.
    echo "==> protego-lint --strict --prove over the phased examples"
    ./_build/default/bin/lint.exe \
        --fstab examples/policies/fstab.phased \
        --binds examples/policies/bind.phased.map \
        --strict --prove

    # The deliberately loosening example must FAIL, and fail for the right
    # reason: PL-PH001 (phase guard not downward closed) is the sole
    # finding.  A zero exit here means the tighten-only gate went soft.
    echo "==> loosening policy is rejected (PL-PH001 expected)"
    if out=$(./_build/default/bin/lint.exe \
            --binds examples/policies/bind.loosening.map --strict 2>&1); then
        echo "CI: bind.loosening.map passed strict lint; tighten-only gate is broken" >&2
        exit 1
    else
        echo "$out"
        echo "$out" | grep -q 'PL-PH001' || {
            echo "CI: bind.loosening.map failed without PL-PH001" >&2
            exit 1
        }
    fi

    # Short runs of every benchmark workload: exits non-zero if any
    # operation's outcome disagrees with the benchmark's oracle or a
    # declared metric goes missing.
    echo "==> lsmbench smoke (outcome oracle on all four workloads)"
    python3 lsmbench/run.py --smoke

    # Where the linker placed the hot code: Syscall.trap runs at every
    # syscall, Netstack.packet_work at every packet, and both spend their
    # time in Cost.chain, whose cost should not move with its offset mod
    # 64 (the former add loops' did).  Pfm.eval runs Pfm.step (one
    # instruction), Pfm.fused (the test after a load, in the same
    # dispatch), Pfm.goto (a jump's target, returning at a Ret) and the
    # switch lookups Pfm.find_int and Pfm.find_str.  Decider.decide
    # (every request hook's decision), Decider.decide_cached with
    # Decision_cache.find and .add (the packet hook's table, keyed by its
    # context's ints), Plane.decide_with and the Lsm hook entries are the
    # rest of the measured paths; their speed still moves with their
    # offset, so a change that resizes code linked before them can move
    # benchmarks that run none of it.  Each bench log records every
    # offset.
    # Informational only; never fails the job.
    echo "==> hot-symbol layout in lsmbench/suite.exe"
    for sym in kernel:Syscall.trap kernel:Netstack.packet_work kernel:Cost.chain \
            filter:Pfm.eval filter:Pfm.step filter:Pfm.fused filter:Pfm.goto \
            filter:Pfm.find_int filter:Pfm.find_str core:Decider.decide \
            core:Decider.decide_cached core:Decision_cache.find core:Decision_cache.add \
            plane:Plane.decide_with core:Lsm.sb_mount core:Lsm.sb_umount \
            core:Lsm.socket_bind core:Lsm.file_ioctl; do
        lib=${sym%%:*}
        name=${sym#*:}
        addr=$(nm _build/default/lsmbench/suite.exe 2>/dev/null \
            | sed -n "s/^\([0-9a-f]*\) T camlProtego_${lib}__${name}_[0-9]*\$/\1/p" \
            | head -n 1) || true
        if [ -n "$addr" ]; then
            echo "$name at 0x$addr, offset $((0x$addr % 64)) mod 64"
        else
            echo "$name: symbol not found (no nm, or a stripped binary)"
        fi
    done

    # Source size per top-level directory, so a change's line delta is
    # on record in its CI log.  Informational only; never fails the job.
    echo "==> *.ml/*.mli line counts"
    for dir in lib bin bench lsmbench test; do
        lines=$(find "$dir" \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + \
            2>/dev/null | wc -l) || true
        echo "$dir: ${lines:-?} lines"
    done
}

full_tier() {
    echo "==> dune build"
    dune build

    # The bench emits a versioned JSON report; bench_gate parses it back,
    # asserts its structure (schema, required scenarios, sane non-zero
    # rates, monotone percentiles) and compares every *_ns metric against
    # the committed baseline.  The 3x tolerance is deliberately loose: it
    # only trips on a real algorithmic regression, never on runner noise.
    echo "==> bench report (BENCH_protego.json)"
    ./_build/default/bench/main.exe --json -o BENCH_protego.json

    # The --floor is absolute, not baseline-relative: the program the
    # netfilter hook serves for the 128-port chain (its ports dispatched
    # through one switch) must keep a >=3x win over the reference walk.
    echo "==> bench structural check + regression gate"
    ./_build/default/bin/bench_gate.exe BENCH_protego.json \
        --baseline bench/baseline.json --tolerance 3 \
        --floor filter:nf_output,speedup,3

    # The packet hook's decision table: cold miss and table hit (a fresh
    # packet record per call, the path a sendto takes) against the
    # engines, by chain size.  A smoke run: it must complete, the numbers
    # are informational.
    echo "==> decision-cache bench smoke (bench/main.exe cache)"
    ./_build/default/bench/main.exe cache

    # The audit bench saves the steady journal's binary image; verifying it
    # with the standalone CLI exercises the full persistence + decode +
    # stitch path on a real multi-run, multi-domain artifact.  --strict
    # additionally asserts zero dropped records and per-run contiguity.
    echo "==> journal artifact verification (JOURNAL_protego.bin)"
    ./_build/default/bin/journal.exe verify JOURNAL_protego.bin --strict

    echo "==> decision-cache interleaving harness"
    ./_build/default/test/test_main.exe test cache

    # Equivalence prover: golden proven-equal/-different pairs per hook
    # compiler, the netfilter compiler's port switch against its
    # straight-line sibling, and the QCheck prove-vs-differential
    # properties.
    echo "==> equivalence prover + translation-validation suites"
    ./_build/default/test/test_main.exe test equiv

    # Plane stress: the multi-domain differential suites (N-domain run vs
    # the sequential reference, snapshot interleavings, audit integrity)
    # and a scaling smoke run whose numbers ride along with the bench
    # artifact.  The suites spawn real domains, so this exercises the
    # epoch-publication path under actual parallelism even on a small
    # runner.
    echo "==> decision-plane stress (multi-domain differential + interleavings)"
    ./_build/default/test/test_main.exe test plane

    # Journal stress: torn-tail/wraparound/stitch unit suites plus the
    # 20k-request 4-domain journal differential (stitched trail vs the
    # oracle and the live outcomes) and the total-order replay against
    # epoch-stamped snapshots, including a record-mode run.
    echo "==> audit-journal stress (differential + total-order replay)"
    ./_build/default/test/test_main.exe test journal

    # Deterministic simulation: bit-replayability, the seeded sweeps over
    # the temporal-property registry, one catch-and-shrink test per
    # injected fault class, and the 20 pinned golden interleavings.
    echo "==> deterministic simulation suites"
    ./_build/default/test/test_main.exe test sim

    # A wider seeded sweep than the suite runs inline: 200 fresh schedules
    # on a 3-worker plane.  On the first violated property the schedule is
    # shrunk and the replayable one-liner lands in SIM_failure.txt, which
    # the workflow uploads as an artifact.
    echo "==> simulation sweep (200 seeds; failures shrink into SIM_failure.txt)"
    ./_build/default/bin/sim.exe sweep \
        --spec 'lane=plane,workers=3,steps=120,reloads=4' \
        --seeds 200 --out SIM_failure.txt

    # Same sweep with the lifecycle dimension enabled: seeded phase
    # transitions interleave with decisions and reloads, and the
    # phase-monotone / phase-consistent temporal properties must hold on
    # every schedule.
    echo "==> phase-lane simulation sweep (200 seeds, phases=on)"
    ./_build/default/bin/sim.exe sweep \
        --spec 'lane=plane,workers=3,steps=120,reloads=4,phases=on' \
        --seeds 200 --out SIM_failure.txt

    # The dispatcher lane: the generated workload through the LSM-side
    # dispatcher (Pfm_dispatch) with netfilter chain edits, every verdict
    # checked against the live policy-state oracle and, after each edit,
    # the served nf program proved equal to the straight-line compile of
    # the live chain (nf-proved).
    echo "==> dispatcher-lane simulation sweep (200 seeds, lane=dispatch)"
    ./_build/default/bin/sim.exe sweep \
        --spec 'lane=dispatch,steps=120,edits=4' \
        --seeds 200 --out SIM_failure.txt

    echo "==> decision-plane scaling smoke (numbers land in PLANE_scaling.txt)"
    ./_build/default/bench/main.exe plane | tee PLANE_scaling.txt

    # The record -> synthesize -> verify closed loop on a fresh seeded
    # deny-flood: record in permissive mode, synthesize policy sources,
    # then verify determinism (byte-identical re-synthesis), strict
    # lint, enforce-mode load and a zero-false-deny replay.  The
    # synthesized directory is uploaded as an artifact.
    echo "==> protego-synth closed loop (policies land in SYNTH_protego/)"
    rm -rf SYNTH_protego && mkdir SYNTH_protego
    ./_build/default/bin/synth.exe record --seed 7 --requests 5000 \
        -o SYNTH_protego/RECORD.bin
    ./_build/default/bin/synth.exe emit \
        --journal SYNTH_protego/RECORD.bin --dir SYNTH_protego \
        | tee SYNTH_protego/emit.log
    ./_build/default/bin/synth.exe verify \
        --journal SYNTH_protego/RECORD.bin --dir SYNTH_protego

    # The same loop on the kernel's own path: the deny-flood runs as
    # syscalls through the LSM hooks of a booted Protego image in record
    # mode.  The machine's audit journal (one typed decision record per
    # hook decision) must verify with the journal CLI (--strict: nothing
    # dropped, seqs contiguous), then synthesize and replay with zero
    # false denies.
    echo "==> protego-synth LSM lane (policies land in SYNTH_lsm/)"
    rm -rf SYNTH_lsm && mkdir SYNTH_lsm
    ./_build/default/bin/synth.exe record --lane lsm --seed 7 \
        --requests 5000 -o SYNTH_lsm/RECORD.bin
    ./_build/default/bin/journal.exe verify SYNTH_lsm/RECORD.bin --strict
    ./_build/default/bin/synth.exe emit \
        --journal SYNTH_lsm/RECORD.bin --dir SYNTH_lsm \
        | tee SYNTH_lsm/emit.log
    ./_build/default/bin/synth.exe verify \
        --journal SYNTH_lsm/RECORD.bin --dir SYNTH_lsm

    # The committed fixture pair: re-synthesizing the committed recorded
    # journal must reproduce the committed policy sources byte for byte
    # (plus the same lint/load/replay gauntlet).  The recording was made
    # with:
    #   synth.exe record --seed 42 --requests 800 --seg-bytes 16384 \
    #       --segments 8 -o examples/policies/synth/RECORD.bin
    echo "==> committed synth fixture is reproducible"
    ./_build/default/bin/synth.exe verify \
        --journal examples/policies/synth/RECORD.bin \
        --dir examples/policies/synth
}

case "$mode" in
    fast) fast_tier ;;
    full) full_tier ;;
    both) fast_tier; full_tier ;;
esac

echo "CI: all checks passed ($mode tier)"
