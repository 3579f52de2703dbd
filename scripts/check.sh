#!/usr/bin/env bash
# Full local gate: formatting, lints, and the complete test suite.
# CI (.github/workflows/ci.yml) runs exactly these steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings; the project crates, not vendor/)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test"
cargo test --workspace -q

echo "==> bench binaries (--smoke: render -> parse -> schema-validate every report)"
cargo run -q --release -p elp2im-bench --bin all_experiments -- --smoke > /dev/null

echo "==> fig11 --selftest (serial vs parallel Monte-Carlo agreement)"
cargo run -q --release -p elp2im-bench --bin fig11 -- --selftest

echo "==> elp2im-lint over the golden corpus (no errors, no warnings)"
cargo run -q --release -p elp2im-bench --bin elp2im-lint -- --corpus --deny-warnings > /dev/null

echo "==> elp2im-lint --self-test (optimizer translation validation)"
cargo run -q --release -p elp2im-bench --bin elp2im-lint -- --self-test

echo "==> elp2im-lint rejects every seeded-invalid fixture"
for fixture in crates/bench/tests/lint_fixtures/invalid_*.prmt; do
    if cargo run -q --release -p elp2im-bench --bin elp2im-lint -- "$fixture" > /dev/null 2>&1; then
        echo "lint accepted invalid fixture $fixture" >&2
        exit 1
    fi
done

echo "==> elp2im-lint --plan over the plan corpus (no errors, no warnings)"
cargo run -q --release -p elp2im-bench --bin elp2im-lint -- --plan --corpus --deny-warnings > /dev/null

echo "==> elp2im-lint --plan rejects every seeded-invalid plan fixture"
for fixture in crates/bench/tests/lint_fixtures/plan_invalid_*.prmt; do
    if cargo run -q --release -p elp2im-bench --bin elp2im-lint -- --plan "$fixture" > /dev/null 2>&1; then
        echo "plan verifier accepted invalid plan $fixture" >&2
        exit 1
    fi
done

echo "==> fig13 --trace-json round trip"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q --release -p elp2im-bench --bin fig13 -- --trace-json "$trace_dir/trace.json" > /dev/null
grep -q '"elp2im-trace-v1"' "$trace_dir/trace.json"

echo "==> perf_report smoke (emit + schema-validate BENCH_006)"
cargo run -q --release -p elp2im-bench --bin perf_report -- --smoke --out "$trace_dir/bench_006.json" > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --check "$trace_dir/bench_006.json"
cargo run -q --release -p elp2im-bench --bin perf_report -- --check BENCH_006.json

echo "==> fault-injection soak smoke (emit + validate BENCH_007)"
ELP2IM_SOAK_OPS=24 cargo test -q --test fault_injection_soak > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --soak --smoke --out "$trace_dir/bench_007.json" > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --check "$trace_dir/bench_007.json"
cargo run -q --release -p elp2im-bench --bin perf_report -- --check BENCH_007.json

echo "==> fault-injection soak at full size (regenerated BENCH_007 is byte-identical)"
cargo run -q --release -p elp2im-bench --bin perf_report -- --soak --out "$trace_dir/bench_007_full.json" > /dev/null
cmp "$trace_dir/bench_007_full.json" BENCH_007.json

echo "==> topology scaling (emit + validate BENCH_008, deterministic)"
cargo run -q --release -p elp2im-bench --bin perf_report -- --topology --out "$trace_dir/bench_008.json" > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --check "$trace_dir/bench_008.json"
cargo run -q --release -p elp2im-bench --bin perf_report -- --check BENCH_008.json

echo "==> logic synthesis (emit + validate BENCH_009, deterministic; auto-XOR <= 297 ns)"
cargo run -q --release -p elp2im-bench --bin perf_report -- --synth --out "$trace_dir/bench_009.json" > /dev/null
cargo run -q --release -p elp2im-bench --bin perf_report -- --check "$trace_dir/bench_009.json"
cargo run -q --release -p elp2im-bench --bin perf_report -- --check BENCH_009.json

echo "==> examples (expressions, quickstart)"
cargo run -q --release --example expressions > /dev/null
cargo run -q --release --example quickstart > /dev/null

echo "==> repo benchmark (its unit tests, then --smoke: every workload, exit 1 on failure)"
cargo test -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --smoke > /dev/null

echo "==> batch bench smoke (vendored criterion --smoke fast path)"
cargo bench -q -p elp2im-bench --bench batch -- --smoke > /dev/null

echo "All checks passed."
