package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/store"
	"repro/internal/tune"
)

// runStore is the `winograd-bench store` subcommand family:
//
//	winograd-bench store merge -o OUT IN...   combine partial stores
//	winograd-bench store ls PATH...           list entries, sorted by key
//	winograd-bench store verify PATH...       full integrity gate
//
// merge unions shard outputs: commutative, idempotent, and loud on
// divergence (the same key with different payloads exits 1 naming both
// files), so N disjoint tuning shards merge into bytes identical to the
// single-process run. Corrupt entries in inputs are quarantined with a
// warning, matching tune's cold-cache policy.
//
// verify is the strict mode CI uses as a store-integrity gate: any
// quarantined entry, any cross-file conflict, and any tune-mode payload
// failing the full key round-trip (config/shape canonicalization,
// kernel-source and device-spec rehashing) exits non-zero.
func runStore(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "winograd-bench store: want a verb: merge, ls or verify")
		return 2
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "merge":
		return runStoreMerge(rest, stderr)
	case "ls":
		return runStoreLs(rest, stdout, stderr)
	case "verify":
		return runStoreVerify(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "winograd-bench store: unknown verb %q (want merge, ls or verify)\n", verb)
		return 2
	}
}

func runStoreMerge(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("winograd-bench store merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "path of the merged store (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	inputs := fs.Args()
	if *out == "" || len(inputs) == 0 {
		fmt.Fprintln(stderr, "winograd-bench store merge: usage: store merge -o OUT IN...")
		return 2
	}
	merged := store.New()
	mergedLabel := "merged"
	for _, path := range inputs {
		s, rep := store.Load(path)
		for _, w := range rep.Warnings {
			fmt.Fprintln(stderr, w)
		}
		if err := merged.Merge(s, mergedLabel, path); err != nil {
			fmt.Fprintf(stderr, "winograd-bench store merge: %v\n", err)
			return 1
		}
		// After the first input the accumulator is the union so far;
		// label it by provenance for readable conflict messages.
		mergedLabel = mergedLabel + "+" + path
	}
	if err := merged.Save(*out); err != nil {
		fmt.Fprintf(stderr, "winograd-bench store merge: %v\n", err)
		return 1
	}
	return 0
}

func runStoreLs(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "winograd-bench store ls: usage: store ls PATH...")
		return 2
	}
	for _, path := range args {
		s, rep := store.Load(path)
		for _, w := range rep.Warnings {
			fmt.Fprintln(stderr, w)
		}
		fmt.Fprintf(stdout, "%s: %d entries\n", path, s.Len())
		for _, e := range s.Entries() {
			fmt.Fprintf(stdout, "  %s  %s\n", e.Hash, e.Key)
		}
	}
	return 0
}

func runStoreVerify(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "winograd-bench store verify: usage: store verify PATH...")
		return 2
	}
	bad := 0
	all := store.New()
	for _, path := range args {
		s, rep := store.Load(path)
		for _, w := range rep.Warnings {
			fmt.Fprintln(stderr, w)
		}
		bad += rep.Quarantined
		if len(rep.Warnings) > rep.Quarantined {
			// Whole-file problems (corrupt JSON, stale schema) carry no
			// per-entry count but must still fail the gate.
			bad++
		}
		for _, e := range s.Entries() {
			if !strings.HasPrefix(e.Mode, "tune/") {
				continue
			}
			if _, err := tune.EntryFromStore(e); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", path, err)
				bad++
			}
		}
		if err := all.Merge(s, "verified set", path); err != nil {
			fmt.Fprintf(stderr, "winograd-bench store verify: %v\n", err)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "winograd-bench store verify: %d problem(s) across %d file(s)\n", bad, len(args))
		return 1
	}
	fmt.Fprintf(stdout, "verified %d file(s): %d entries, no quarantines, no conflicts\n", len(args), all.Len())
	return 0
}
