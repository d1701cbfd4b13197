package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment reports and the run pins of testdata/pins.json")

// TestGoldenReports pins the byte-exact rendering of representative
// experiments: fig3 (the paper's headline PLT comparison), table2 (the
// CC-variant sweep) and recovery (the loss-recovery fix-arm matrix,
// whose paper-era rows double as an arms-off baseline pin). Everything
// feeds these bytes — the RNG stream, the TCP model, the RRC machine,
// the report formatting — so any unintended behaviour change anywhere
// in the stack shows up as a golden diff. Intended changes are
// re-blessed with `go test -run TestGoldenReports -update
// ./internal/experiment/`.
func TestGoldenReports(t *testing.T) {
	h := Harness{Runs: 2, Seed: 1}
	for _, id := range []string{"fig3", "table2", "recovery", "protocols"} {
		id := id
		t.Run(id, func(t *testing.T) {
			spec, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			got := spec.Run(h).String()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s report drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
			}
		})
	}
}
