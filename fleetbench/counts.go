package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// checkCounts compares the work counts of a traced run with those the
// first traced run over the same inputs (workload, seed and request
// digest) in this checkout recorded, recording them when there are none
// yet. The counts depend only on the inputs, so any difference is
// nondeterminism, never noise: it is reported on standard error and
// fails the run.
func checkCounts(workload string, seed int64, got counts) (bool, error) {
	path := filepath.Join(".bench_build", "counts", fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return false, err
	}
	var want counts
	if err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	if want.Inputs != got.Inputs {
		// First run over these inputs (or the workload definition
		// changed): record.
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return false, err
		}
		out, err := json.Marshal(got)
		if err != nil {
			return false, err
		}
		return true, os.WriteFile(path, out, 0o644)
	}
	if want != got {
		fmt.Fprintf(os.Stderr, "fleetbench: NONDETERMINISM: work counts of %s seed %d differ from the first run's\n  first: %+v\n  now:   %+v\n",
			workload, seed, want, got)
		return false, nil
	}
	return true, nil
}
