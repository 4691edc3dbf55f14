// Package fourqasic is a full-system reproduction of "FourQ on ASIC:
// Breaking Speed Records for Elliptic Curve Scalar Multiplication"
// (Awano & Ikeda, DATE 2019).
//
// The repository implements, from scratch and in pure Go:
//
//   - the FourQ elliptic curve stack: GF(2^127-1) and GF(p^2) arithmetic,
//     complete twisted Edwards point operations, four-way decomposed
//     scalar multiplication (the paper's Algorithm 1), and SchnorrQ
//     signatures (internal/fp, internal/fp2, internal/curve,
//     internal/scalar, internal/schnorrq);
//   - the paper's automated hardware-design flow: an execution-trace
//     recorder (internal/trace), a job-shop / RCPSP solver standing in
//     for PySchedule + IBM CP Optimizer (internal/jobshop), a scheduling
//     front-end with register allocation (internal/sched), a
//     microinstruction set and program ROM (internal/isa);
//   - a cycle-accurate model of the fabricated datapath, bit-true through
//     the lazy-reduction Karatsuba multiplier pipeline (internal/rtl);
//   - measurement models calibrated to the published silicon results:
//     voltage/frequency/energy (internal/power) and area (internal/gates);
//   - the prior-art baselines of Table II: NIST P-256 (internal/p256)
//     and Curve25519 (internal/c25519);
//   - the top-level processor assembly and every table/figure
//     reproduction (internal/core).
//
// See DESIGN.md for the system inventory and the per-experiment index,
// and EXPERIMENTS.md for paper-versus-measured results. The root-level
// benchmarks in bench_test.go regenerate each experiment:
//
//	go test -bench=. -benchmem .
package fourqasic
