package main

import (
	"strings"
	"testing"
)

func rec(workload string, seed int, commit string, numcpu int) record {
	var r record
	r.Stamp = map[string]any{"workload": workload, "seed": seed, "commit": commit, "source": commit,
		"numcpu": numcpu, "goos": "linux", "go": "go1.24.0", "shape": map[string]any{"domains": 400}}
	return r
}

func TestCheckStamps(t *testing.T) {
	parent := []record{rec("w", 1, "p", 2), rec("w", 2, "p", 2)}
	if err := checkStamps(parent, []record{rec("w", 1, "c", 2), rec("w", 2, "c", 2)}); err != nil {
		t.Errorf("same machine, different code refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		change []record
		want   string
	}{
		{"other machine", []record{rec("w", 1, "c", 4), rec("w", 2, "c", 4)}, "numcpu"},
		{"mixed code on one side", []record{rec("w", 1, "c", 2), rec("w", 2, "d", 2)}, "commit"},
		{"unpaired seeds", []record{rec("w", 2, "c", 2), rec("w", 1, "c", 2)}, "seed"},
	} {
		err := checkStamps(parent, c.change)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
	other := rec("w", 1, "c", 2)
	other.Stamp["shape"] = map[string]any{"domains": 800}
	if err := checkStamps(parent, []record{other}); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Errorf("different shape: %v", err)
	}
}
