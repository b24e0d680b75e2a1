// Package repro is a Go reproduction of "Active Files: A Mechanism for
// Integrating Legacy Applications into Distributed Systems" (Dasgupta,
// Itzkovitz, Karamcheti — ICDCS 2000).
//
// The public API lives in repro/activefile (using active files) and
// repro/activefile/sentinel (authoring sentinel programs). The benchmark in
// benchmark/ measures the stack end to end (go run ./benchmark -smoke), and
// activefile/figure6_test.go checks the ordering of the paper's Figure 6. See
// README.md, DESIGN.md, and EXPERIMENTS.md.
package repro
