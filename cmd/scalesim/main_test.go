package main

import (
	"strings"
	"testing"
)

// TestFidelityFlagRejectsUnknownTier: -fidelity on run and explore rejects
// the removed per-cycle tier's name before simulating anything, and the
// error names the valid values. main prints the error and exits 1.
func TestFidelityFlagRejectsUnknownTier(t *testing.T) {
	out := t.TempDir()
	cmds := map[string]func() error{
		"run": func() error {
			return run([]string{"-topology", "alexnet", "-fidelity", "cycle", "-outdir", out})
		},
		"explore": func() error {
			return runExplore([]string{"-topology", "alexnet", "-space", "array=8..16:pow2",
				"-fidelity", "cycle", "-outdir", out})
		},
	}
	for name, cmd := range cmds {
		err := cmd()
		if err == nil {
			t.Errorf("%s -fidelity cycle succeeded, want an error", name)
			continue
		}
		if !strings.Contains(err.Error(), "valid: analytical, event") {
			t.Errorf("%s -fidelity cycle error %q does not name the valid values", name, err)
		}
	}
}
