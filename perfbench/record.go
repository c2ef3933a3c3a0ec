package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/litmus"
)

// recordOutputs regenerates the recorded outputs every run checks
// against: the canonical document digests of the two sweeps and the
// exploration counts of every k=4 litmus program under B+M+I. Run it
// only when a change is meant to alter simulated results.
func recordOutputs(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, spec := range []*sweepSpec{paperSpec(), manycoreSpec()} {
		p, err := spec.pass(ctx)
		if err != nil {
			return err
		}
		for _, rec := range p.records {
			if rec.Error != "" {
				return fmt.Errorf("%s: cell %s/%s failed: %s", spec.name, rec.Workload, rec.Config, rec.Error)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, spec.digests), makeDigests(p.doc, p.records).encode(), 0o644); err != nil {
			return err
		}
		log.Printf("%s: %d cells, document sha256 %s", spec.name, len(p.records), sha(p.doc))
	}
	tests := litmus.Enumerate(litmus.DefaultEnumOptions(litmusK))
	rec := &litmusRecord{names: namesDigest(tests)}
	for _, t := range tests {
		rep, err := litmus.Explore(t, litmus.BMI, litmus.Options{})
		if err != nil {
			return fmt.Errorf("litmus %s: %w", t.Name, err)
		}
		if err := checkExplore(t, rep, nil, countsOf(rep)); err != nil {
			return err
		}
		rec.counts = append(rec.counts, countsOf(rep))
	}
	log.Printf("litmus: %d programs", len(tests))
	return os.WriteFile(filepath.Join(dir, litmusCounts), rec.encode(), 0o644)
}
