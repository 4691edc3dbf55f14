// Command benchcheck validates fourq-bench/v1 reports (written by
// fourq-bench, fourq-loadgen and fourq-chaos) and compares them through
// the rule table of internal/benchreport. Every report given must
// decode with each checked experiment complete, record no failed
// experiment, and pass its experiments' Check methods.
//
// With -baseline, every exact row shared with the recorded baseline —
// makespans, schedule hashes, cycles/SM, lower bounds, trace op counts,
// ROM sizes — must match it with zero tolerance. With -parent, the
// host SM/s rows are compared in pairs: the reports matched by the
// glob, sorted, pair in order with the reports given, and the median
// per-pair ratio of each row must stay at or above 1 - tolerance.
// Host numbers are never compared against a recorded baseline: they do
// not carry between hosts or sessions.
//
//	go run ./scripts/benchcheck /tmp/bench.json
//	go run ./scripts/benchcheck -baseline BENCH_rtl.json /tmp/exact.json
//	go run ./scripts/benchcheck -parent '/tmp/pairs/parent-*.json' /tmp/pairs/head-*.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/benchreport"
)

func main() {
	baseline := flag.String("baseline", "", "recorded report whose exact rows every report must match")
	parent := flag.String("parent", "", "glob naming the parent build's reports, paired in sorted order with the reports given")
	tolerance := flag.Float64("tolerance", 0.10, "allowed drop of a host row's median paired ratio below 1")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-baseline base.json] [-parent 'glob' [-tolerance 0.10]] <report.json>...")
		os.Exit(2)
	}
	if err := run(flag.Args(), *baseline, *parent, *tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok")
}

func run(paths []string, baseline, parent string, tol float64) error {
	reports, err := load(paths)
	if err != nil {
		return err
	}
	if baseline != "" {
		base, err := load([]string{baseline})
		if err != nil {
			return err
		}
		for i, r := range reports {
			if err := benchreport.CompareExact(os.Stdout, base[0], r); err != nil {
				return fmt.Errorf("%s: %w", paths[i], err)
			}
		}
	}
	if parent != "" {
		ppaths, err := filepath.Glob(parent)
		if err != nil {
			return err
		}
		parents, err := load(ppaths)
		if err != nil {
			return err
		}
		return benchreport.ComparePaired(os.Stdout, parents, reports, tol)
	}
	return nil
}

// load reads, decodes and checks each report.
func load(paths []string) ([]*benchreport.Report, error) {
	var reports []*benchreport.Report
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r, err := check(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// check decodes one report and runs its Check.
func check(data []byte) (*benchreport.Report, error) {
	r, err := benchreport.Decode(data)
	if err != nil {
		return nil, err
	}
	return r, r.Check()
}
