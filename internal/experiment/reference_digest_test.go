package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/webpage"
)

var updateReferenceDigests = flag.Bool("update-reference-digests", false, "rewrite testdata/reference_digests.json")

// referenceRuns are the rows of testdata/reference_digests.json, the
// sessions pinned event for event: every {CC} × {recovery arm} × {mux}
// layering combo, the two impaired runs that exercise every retransmit
// timer, and the two 3G sessions whose telemetry samples were once
// compared with a walk over every connection.
func referenceRuns() []sessionDigestConfig {
	var runs []sessionDigestConfig
	for _, o := range layeringCombos() {
		runs = append(runs, sessionDigestConfig{"layering/" + comboName(o), o})
	}
	for _, seed := range []uint64{1, 7} {
		runs = append(runs, sessionDigestConfig{fmt.Sprintf("impaired/seed=%d", seed), impairedOptions(seed)})
	}
	for _, mode := range samplerModes {
		runs = append(runs, sessionDigestConfig{"samples/" + string(mode), samplerOptions(mode)})
	}
	return runs
}

// layeringCombos enumerates {congestion control} × {loss-recovery arms}
// × {multiplexing mode}: every dimension transport.Spec composes. The
// arm set includes each fix alone and all together, so a composition
// bug that only bites when two layers interact (e.g. RACK reordering
// timers under a composed CC hook) cannot hide.
func layeringCombos() []Options {
	arms := []struct {
		name            string
		tlp, rack, frto bool
	}{
		{"none", false, false, false},
		{"tlp", true, false, false},
		{"rack", false, true, false},
		{"frto", false, false, true},
		{"all", true, true, true},
	}
	var combos []Options
	for _, cc := range []string{"cubic", "reno"} {
		for _, arm := range arms {
			for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
				combos = append(combos, Options{
					Mode:        mode,
					Network:     Net3G,
					Sites:       webpage.Table1()[:2],
					Seed:        11,
					ThinkTime:   5 * time.Second,
					CC:          cc,
					TLP:         arm.tlp,
					RACK:        arm.rack,
					FRTO:        arm.frto,
					ProbeStride: 1,
				})
			}
		}
	}
	return combos
}

func comboName(o Options) string {
	return fmt.Sprintf("%s/%s/tlp=%t,rack=%t,frto=%t", o.CC, o.Mode, o.TLP, o.RACK, o.FRTO)
}

// impairedOptions is a deliberately hostile full-stack workload: bursty
// Gilbert-Elliott loss, extra jitter, reordering and duplication on the
// wire, with every modern recovery arm (TLP, RACK, F-RTO) enabled so the
// run exercises the full retransmit-timer choreography — arm, re-arm,
// cancel-on-ack, probe timeout — on top of the browser/RRC/think-time
// timer spectrum. ProbeStride 1 keeps the complete probe trace.
func impairedOptions(seed uint64) Options {
	return Options{
		Mode:      browser.ModeSPDY,
		Network:   Net3G,
		Sites:     metaSites(),
		Seed:      seed,
		ThinkTime: 5 * time.Second,
		TLP:       true,
		RACK:      true,
		FRTO:      true,
		Impair: netem.Impairments{
			GEGoodToBad: 0.02,
			GEBadToGood: 0.3,
			GELossBad:   0.5,
			ReorderProb: 0.01,
			DupProb:     0.005,
			ExtraJitter: 3 * time.Millisecond,
		},
		ProbeStride: 1,
	}
}

// referenceDigest extends sessionDigest with the run's duration, an
// FNV-1a hash of the whole retained probe trace and one of its
// telemetry samples.
func referenceDigest(res *Result) string {
	trace := fnv.New64a()
	fmt.Fprintf(trace, "%d\n", res.Recorder.TotalSamples())
	for i := 0; i < res.Recorder.Len(); i++ {
		fmt.Fprintf(trace, "%+v\n", res.Recorder.Get(i))
	}
	samples := fnv.New64a()
	for _, s := range res.Samples {
		fmt.Fprintf(samples, "%+v\n", s)
	}
	return fmt.Sprintf("%s duration=%d trace=%016x samples=%016x",
		sessionDigest(res), int64(res.Duration), trace.Sum64(), samples.Sum64())
}

// TestReferenceDigests holds every referenceRuns session to the digest
// recorded when the pre-refactor monolithic wiring of Run, Run under the
// 4-ary heap the timing wheel replaced, and Run under the wheel all gave
// it. The file is rewritten only by
// `go test -run TestReferenceDigests ./internal/experiment/ -update-reference-digests`.
func TestReferenceDigests(t *testing.T) {
	path := filepath.Join("testdata", "reference_digests.json")
	runs := referenceRuns()
	if *updateReferenceDigests {
		got := make(map[string]string, len(runs))
		for _, r := range runs {
			got[r.name] = referenceDigest(Run(r.opts))
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no digest file (run with -update-reference-digests to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(runs) {
		t.Errorf("%d digests committed, %d runs pinned", len(want), len(runs))
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			if got := referenceDigest(Run(r.opts)); got != want[r.name] {
				t.Errorf("drifted:\n got  %s\n want %s", got, want[r.name])
			}
		})
	}
}
