package tcpsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spdier/internal/sim"
)

// probeStream synthesizes a realistic mixed event stream: ACK/send trains
// on a few connections with rare events sprinkled in.
func probeStream() []ProbeSample {
	var out []ProbeSample
	for i := 0; i < 400; i++ {
		conn := fmt.Sprintf("conn%d", i%3)
		ev := EvAck
		switch {
		case i%97 == 5:
			ev = EvRetransmit
		case i%61 == 7:
			ev = EvFastRetx
		case i%131 == 11:
			ev = EvSpurious
		case i%50 == 0:
			ev = EvEstablished
		case i%2 == 1:
			ev = EvSend
		}
		out = append(out, ProbeSample{
			At:     sim.Time(i) * sim.Time(1e6),
			ConnID: conn,
			Event:  ev,
			Cwnd:   float64(2 + i%40),
			RTOms:  200,
			SRTTms: float64(50 + i%10),
		})
	}
	return out
}

// TestRareOnlyAggregatesExact: the rare-only recorder must report the
// same counts and cwnd aggregates as a full recorder, and retain exactly
// the non-bulk samples.
func TestRareOnlyAggregatesExact(t *testing.T) {
	full := NewRecorder()
	lean := NewRecorderRareOnly()
	for _, s := range probeStream() {
		full.Sample(s)
		lean.Sample(s)
	}
	if full.TotalSamples() != lean.TotalSamples() {
		t.Fatalf("total: full %d lean %d", full.TotalSamples(), lean.TotalSamples())
	}
	for _, ev := range Events() {
		if full.Count(ev) != lean.Count(ev) {
			t.Errorf("count[%s]: full %d lean %d", ev, full.Count(ev), lean.Count(ev))
		}
	}
	if full.Retransmissions() != lean.Retransmissions() {
		t.Errorf("retx: full %d lean %d", full.Retransmissions(), lean.Retransmissions())
	}
	if full.MeanCwnd() != lean.MeanCwnd() {
		t.Errorf("mean cwnd: full %g lean %g", full.MeanCwnd(), lean.MeanCwnd())
	}
	if full.MaxCwnd() != lean.MaxCwnd() {
		t.Errorf("max cwnd: full %g lean %g", full.MaxCwnd(), lean.MaxCwnd())
	}
	if !lean.RareOnly() {
		t.Errorf("RareOnly() = false on rare-only recorder")
	}

	// The lean store holds exactly the full store's non-bulk samples, in
	// the same order.
	var wantRare []ProbeSample
	full.Each(func(s ProbeSample) bool {
		if s.Event != EvAck && s.Event != EvSend {
			wantRare = append(wantRare, s)
		}
		return true
	})
	var gotRare []ProbeSample
	lean.Each(func(s ProbeSample) bool {
		gotRare = append(gotRare, s)
		return true
	})
	if !reflect.DeepEqual(gotRare, wantRare) {
		t.Fatalf("rare retention mismatch: got %d samples, want %d", len(gotRare), len(wantRare))
	}
	if lean.Len() >= full.Len() {
		t.Fatalf("rare-only should retain less: lean %d full %d", lean.Len(), full.Len())
	}
}

// TestEventNames: the events' values and names are what retained
// traces and golden reports carry, so reordering a constant or renaming
// one fails here before it relabels them.
func TestEventNames(t *testing.T) {
	var names []string
	for _, ev := range Events() {
		names = append(names, ev.String())
	}
	const want = "ack send retransmit fastretx idlerestart rttreset established spurious undo tlpprobe rackretx frtoundo"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("events in code order:\n got %s\nwant %s", got, want)
	}
	if got := fmt.Sprintf("%+v", ProbeSample{Event: EvUndo}); !strings.Contains(got, "Event:undo") {
		t.Errorf("a printed sample reads %s, want it to carry Event:undo", got)
	}
}
