package experiment

import (
	"strings"
	"testing"
)

func TestReportRendering(t *testing.T) {
	r := NewReport("figX", "A title", "the paper said so")
	r.Printf("line %d", 1)
	r.Printf("line 2\n")       // trailing newline must not double
	r.Printf("%s", "line 3\n") // newline via argument must not double either
	r.Metric("some metric", 3.14159, "s")
	out := r.String()
	if !strings.HasPrefix(out, "== figX: A title ==\n") {
		t.Fatalf("header: %q", out)
	}
	if !strings.Contains(out, "paper: the paper said so") {
		t.Fatal("missing paper summary")
	}
	if strings.Contains(out, "line 2\n\n") {
		t.Fatal("doubled newline")
	}
	if strings.Contains(out, "line 3\n\n") {
		t.Fatal("doubled newline when the format argument ends in \\n")
	}
	if r.Metrics["some metric"] != 3.14159 {
		t.Fatal("metric not recorded")
	}
	if !strings.Contains(out, "3.14 s") {
		t.Fatalf("metric not printed: %q", out)
	}
}

func TestReportWithoutPaperLine(t *testing.T) {
	r := NewReport("x", "t", "")
	if strings.Contains(r.String(), "paper:") {
		t.Fatal("empty paper summary printed")
	}
}

func TestDefaultHarness(t *testing.T) {
	h := DefaultHarness()
	if h.Runs < 2 || h.Seed == 0 {
		t.Fatalf("harness %+v", h)
	}
}

func TestGetUnknownExperiment(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown experiment resolved")
	}
}

// gate: race-repeat
func TestSweepUsesDistinctSeeds(t *testing.T) {
	h := Harness{Runs: 2, Seed: 10}
	results := sweepStats(h, Options{Network: NetWiFi})
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].Seed == results[1].Seed {
		t.Fatal("seeds not swept")
	}
	// Different seeds must give different outcomes somewhere.
	a, b := results[0].PLTs, results[1].PLTs
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed sweep produced identical runs")
	}
}
