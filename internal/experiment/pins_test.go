package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// pinsPath is the ledger every run pin of this package is held to: row
// name → {field: value}. It is rewritten only by -update.
const pinsPath = "testdata/pins.json"

// pinRun is one ledger row: a named session and the function that runs
// it and returns the fields it pins.
type pinRun struct {
	name string
	opts Options
	row  func(Options) pinRow
}

// pinRow is a row's fields. Numbers are in the clear, a float64 as its
// bits; only long sequences (the PLTs, the probe trace, the samples and
// the ACK lines) are FNV-1a hashes.
type pinRow map[string]any

// sessionRuns are the multiplexed sessions no golden report and no bench
// digest reaches (striped SPDY early- and late-bound, 20 WiFi sessions,
// h2 in both framings, h2 and QUIC under bursty loss, QUIC with and
// without 0-RTT), then the sender policies tcpsim.Conn and QUICConn
// share, crossed with http, spdy and quic on 3G, where the radio idles
// between pages and every policy runs. Each runs 6 sites at seeds 1–3.
func sessionRuns() []pinRun {
	geLoss := netem.Impairments{GEGoodToBad: 0.005, GEBadToGood: 0.3, GELossBad: 0.5}
	configs := []pinRun{
		{name: "spdy/3g/sessions=4", opts: Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 4}},
		{name: "spdy/3g/sessions=4/late", opts: Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 4, SPDYLateBinding: true}},
		{name: "spdy/wifi/sessions=20", opts: Options{Mode: browser.ModeSPDY, Network: NetWiFi, SPDYSessions: 20}},
		{name: "h2/3g", opts: Options{Mode: browser.ModeH2, Network: Net3G}},
		{name: "h2/3g/equal-framing", opts: Options{Mode: browser.ModeH2, Network: Net3G, H2EqualFraming: true}},
		{name: "h2/lte/ge-loss", opts: Options{Mode: browser.ModeH2, Network: NetLTE, Impair: geLoss}},
		{name: "quic/3g", opts: Options{Mode: browser.ModeQUIC, Network: Net3G}},
		{name: "quic/3g/no-0rtt", opts: Options{Mode: browser.ModeQUIC, Network: Net3G, QUICNo0RTT: true}},
		{name: "quic/lte/ge-loss", opts: Options{Mode: browser.ModeQUIC, Network: NetLTE, Impair: geLoss}},
	}
	policies := []struct {
		name string
		set  func(*Options)
	}{
		{"rtt-reset", func(o *Options) { o.ResetRTTAfterIdle = true }},
		{"no-ssai", func(o *Options) { o.SlowStartAfterIdleOff = true }},
		{"no-metrics", func(o *Options) { o.NoMetricsCache = true }},
		{"reno", func(o *Options) { o.CC = "reno" }},
		{"no-undo", func(o *Options) { o.DisableUndo = true }},
	}
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY, browser.ModeQUIC} {
		for _, p := range policies {
			opts := Options{Mode: mode, Network: Net3G}
			p.set(&opts)
			configs = append(configs, pinRun{name: fmt.Sprintf("%s/3g/%s", mode, p.name), opts: opts})
		}
	}
	for i := range configs {
		configs[i].opts.Sites = webpage.Table1()[:6]
	}
	return bySeed("", configs, sessionRow)
}

// bySeed is a row for each of seeds 1–3 of each config.
func bySeed(prefix string, configs []pinRun, row func(Options) pinRow) []pinRun {
	var runs []pinRun
	for _, c := range configs {
		for seed := uint64(1); seed <= 3; seed++ {
			c.opts.Seed = seed
			runs = append(runs, pinRun{fmt.Sprintf("%s%s/%d", prefix, c.name, seed), c.opts, row})
		}
	}
	return runs
}

// sackRuns are spdy/3g and h2/lte sessions, as they are and under bursty
// loss, seeds 1–3: the arms whose one long flight meets 3G and LTE loss,
// so their receivers' out-of-order buffers are the deepest any run
// builds. Without impairments an option holds one block, now and then
// two; bursty loss makes holes enough for all four.
func sackRuns() []pinRun {
	geLoss := netem.Impairments{GEGoodToBad: 0.005, GEBadToGood: 0.3, GELossBad: 0.5}
	return bySeed("sack/", []pinRun{
		{name: "spdy/3g", opts: Options{Mode: browser.ModeSPDY, Network: Net3G}},
		{name: "h2/lte", opts: Options{Mode: browser.ModeH2, Network: NetLTE}},
		{name: "spdy/3g/ge-loss", opts: Options{Mode: browser.ModeSPDY, Network: Net3G, Impair: geLoss}},
		{name: "h2/lte/ge-loss", opts: Options{Mode: browser.ModeH2, Network: NetLTE, Impair: geLoss}},
	}, ackRow)
}

// referenceRuns are the sessions pinned event for event: {cubic, reno} ×
// {no arm, each of TLP, RACK and F-RTO alone, all three} × {http, spdy},
// every layering transport.Spec composes; two SPDY runs under bursty
// loss, jitter, reordering and duplication with all three arms, so every
// retransmit timer is armed, re-armed, cancelled and fired; and the two
// 3G sessions whose telemetry was once compared with a walk over every
// connection.
func referenceRuns() []pinRun {
	var runs []pinRun
	for _, cc := range []string{"cubic", "reno"} {
		for _, arm := range [][3]bool{{}, {true, false, false}, {false, true, false}, {false, false, true}, {true, true, true}} {
			for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
				o := Options{Mode: mode, Network: Net3G, Sites: webpage.Table1()[:2], Seed: 11, ThinkTime: 5 * time.Second,
					CC: cc, TLP: arm[0], RACK: arm[1], FRTO: arm[2], ProbeStride: 1}
				runs = append(runs, pinRun{fmt.Sprintf("layering/%s/%s/tlp=%t,rack=%t,frto=%t", cc, mode, o.TLP, o.RACK, o.FRTO), o, referenceRow})
			}
		}
	}
	for _, seed := range []uint64{1, 7} {
		o := Options{Mode: browser.ModeSPDY, Network: Net3G, Sites: metaSites(), Seed: seed, ThinkTime: 5 * time.Second,
			TLP: true, RACK: true, FRTO: true, ProbeStride: 1, Impair: netem.Impairments{GEGoodToBad: 0.02, GEBadToGood: 0.3,
				GELossBad: 0.5, ReorderProb: 0.01, DupProb: 0.005, ExtraJitter: 3 * time.Millisecond}}
		runs = append(runs, pinRun{fmt.Sprintf("impaired/seed=%d", seed), o, referenceRow})
	}
	for _, mode := range samplerModes {
		runs = append(runs, pinRun{"samples/" + string(mode), samplerOptions(mode), referenceRow})
	}
	return runs
}

// pinRuns are all the ledger's rows.
func pinRuns() []pinRun {
	return slices.Concat(sessionRuns(), sackRuns(), referenceRuns())
}

func sessionRow(o Options) pinRow   { return resultRow(Run(o), false) }
func referenceRow(o Options) pinRow { return resultRow(Run(o), true) }

// ackRow watches both directions of the session's path for pure ACKs:
// no payload, no modelled control bytes and an echoed timestamp, which
// the handshake, FIN and re-ACK segments lack. Each is hashed as a line
// of its instant, endpoint, cumulative point, window, DSACK flag and
// SACK blocks, so the hash moves if one block of one option does.
func ackRow(o Options) pinRow {
	acks, sacks, lines := 0, 0, fnv.New64a()
	run(o, nil, func(net *tcpsim.Network) {
		watch := func(p netem.Payload, _ int) bool {
			if seg, ok := p.(*tcpsim.Segment); ok && seg.Len == 0 && seg.CtrlLen == 0 && seg.TSEcr != 0 {
				acks++
				if len(seg.Sack) > 0 {
					sacks++
				}
				fmt.Fprintf(lines, "%v %s sendAck ack=%d wnd=%d dsack=%v sack=%v\n",
					net.Loop().Now(), seg.From, seg.Ack, seg.Wnd, seg.Dsack, seg.Sack)
			}
			return true
		}
		net.Path().AtoB.SetFilter(watch)
		net.Path().BtoA.SetFilter(watch)
	})
	return pinRow{"acks": acks, "sack_bearing": sacks, "ack_lines_fnv": hex64(lines.Sum64())}
}

// resultRow condenses what one run simulated into fields a diff can be
// read from: its seed, event count (Fired: a timer added, dropped or
// moved moves it), loss counters, incomplete pages, radio energy and
// PLTs; full adds its duration, whole probe trace and samples.
func resultRow(res *Result, full bool) pinRow {
	plts, seconds := fnv.New64a(), res.PLTSeconds()
	binary.Write(plts, binary.LittleEndian, seconds)
	row := pinRow{
		"seed":       res.Opts.Seed,
		"fired":      res.Fired,
		"retx":       res.Retransmissions(),
		"spurious":   res.Recorder.SpuriousRetransmissions(),
		"incomplete": res.Incomplete,
		"radio_mj":   hex64(math.Float64bits(res.RadioMJ)),
		"plts":       len(seconds),
		"plts_fnv":   hex64(plts.Sum64()),
	}
	if full {
		trace := fnv.New64a()
		fmt.Fprintf(trace, "%d\n", res.Recorder.TotalSamples())
		for i := 0; i < res.Recorder.Len(); i++ {
			fmt.Fprintf(trace, "%+v\n", res.Recorder.Get(i))
		}
		samples := fnv.New64a()
		for _, s := range res.Samples {
			fmt.Fprintf(samples, "%+v\n", s)
		}
		row["duration"] = int64(res.Duration)
		row["trace_fnv"] = hex64(trace.Sum64())
		row["samples_fnv"] = hex64(samples.Sum64())
	}
	return row
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// diffRow renders the fields in which got and want differ as a
// row/field/got/want table, or "" when none do. A field absent on one
// side reads <nil>.
func diffRow(name string, got, want pinRow) string {
	var fields []string
	for _, row := range []pinRow{got, want} {
		for f := range row {
			fields = append(fields, f)
		}
	}
	slices.Sort(fields)
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "row\tfield\tgot\twant")
	drifted := false
	for _, f := range slices.Compact(fields) {
		if g, w := fmt.Sprint(got[f]), fmt.Sprint(want[f]); g != w {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", name, f, g, w)
			drifted = true
		}
	}
	if !drifted {
		return ""
	}
	tw.Flush()
	return b.String()
}

// ledgerGaps reports how the ledger's rows differ from runs: the count,
// then every row missing from it and every row no run pins.
func ledgerGaps(runs []pinRun, ledger map[string]pinRow) []string {
	var gaps []string
	if len(ledger) != len(runs) {
		gaps = append(gaps, fmt.Sprintf("%d rows in %s, %d runs pinned", len(ledger), pinsPath, len(runs)))
	}
	pinned := make(map[string]bool, len(runs))
	for _, r := range runs {
		if pinned[r.name] = true; ledger[r.name] == nil {
			gaps = append(gaps, fmt.Sprintf("row %s is missing from %s", r.name, pinsPath))
		}
	}
	var extra []string
	for name := range ledger {
		if !pinned[name] {
			extra = append(extra, fmt.Sprintf("row %s is in %s, but no run pins it", name, pinsPath))
		}
	}
	slices.Sort(extra)
	return append(gaps, extra...)
}

// loadPins reads the ledger, numbers as their JSON text.
func loadPins(t *testing.T) map[string]pinRow {
	t.Helper()
	data, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var ledger map[string]pinRow
	if err := dec.Decode(&ledger); err != nil {
		t.Fatalf("%s: %v", pinsPath, err)
	}
	return ledger
}

// checkPins runs each of runs as a parallel subtest and holds its row to
// ledger, printing every drifted field as a row/field/got/want
// table. With -update it rewrites those rows instead: the ledger keeps
// the rows of every other run in pinRuns and drops rows no run pins.
func checkPins(t *testing.T, ledger map[string]pinRow, runs []pinRun) {
	got := make([]pinRow, len(runs))
	if *update {
		t.Cleanup(func() {
			for i, r := range runs {
				if got[i] != nil { // nil: a subtest -run did not select
					ledger[r.name] = got[i]
				}
			}
			out := make(map[string]pinRow)
			for _, r := range pinRuns() {
				if ledger[r.name] != nil {
					out[r.name] = ledger[r.name]
				}
			}
			data, err := json.MarshalIndent(out, "", "  ")
			if err == nil {
				err = os.WriteFile(pinsPath, append(data, '\n'), 0o644)
			}
			if err != nil {
				t.Error(err)
			}
		})
	}
	for i, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			row := r.row(r.opts)
			if *update {
				got[i] = row
				return
			}
			want, ok := ledger[r.name]
			if !ok {
				t.Fatalf("row %s is missing from %s (run with -update to add it)", r.name, pinsPath)
			}
			if drift := diffRow(r.name, row, want); drift != "" {
				t.Errorf("drifted:\n%s", drift)
			}
		})
	}
}

// TestPins holds the ledger to exactly the rows pinRuns names. The rows
// themselves are held by TestSessionDigests, TestSackOptionDigests and
// TestReferenceDigests, and rewritten only by `go test -run
// 'TestPins|Digests' ./internal/experiment/ -update` (the flag after the
// package); a change that moves one must say why.
func TestPins(t *testing.T) {
	if *update {
		return
	}
	for _, gap := range ledgerGaps(pinRuns(), loadPins(t)) {
		t.Error(gap)
	}
}

// TestSessionDigests holds the ledger's 72 session rows to what their
// runs simulate; Fired too is an exact match.
func TestSessionDigests(t *testing.T) {
	checkPins(t, loadPins(t), sessionRuns())
}

// TestSackOptionDigests holds the ledger's 12 SACK rows: the pure ACKs
// each session puts on its path, SACK blocks and all.
func TestSackOptionDigests(t *testing.T) {
	checkPins(t, loadPins(t), sackRuns())
}

// TestReferenceDigests holds the ledger's 24 reference rows, recorded
// when the pre-transport.Spec monolithic Run, Run on the 4-ary heap and
// Run on the timing wheel all agreed on each.
func TestReferenceDigests(t *testing.T) {
	checkPins(t, loadPins(t), referenceRuns())
}

// TestPinCheckNamesDrift feeds the check forged ledgers: a row with one
// changed field must come back as that row and field with got and want,
// and a ledger missing a row or holding an extra one must fail on the
// count and name the row.
func TestPinCheckNamesDrift(t *testing.T) {
	ledger, runs := loadPins(t), pinRuns()
	if gaps := ledgerGaps(runs, ledger); gaps != nil {
		t.Fatalf("the committed ledger has gaps: %q", gaps)
	}
	name := runs[0].name
	forged := maps.Clone(ledger[name])
	forged["fired"] = json.Number("1")
	table := strings.Fields(diffRow(name, ledger[name], forged))
	if want := []string{"row", "field", "got", "want", name, "fired", fmt.Sprint(ledger[name]["fired"]), "1"}; !slices.Equal(table, want) {
		t.Errorf("one forged field: table %q, want %q", table, want)
	}
	missing, extra := maps.Clone(ledger), maps.Clone(ledger)
	delete(missing, name)
	extra["forged/row"] = pinRow{"seed": json.Number("1")}
	for row, forged := range map[string]map[string]pinRow{name: missing, "forged/row": extra} {
		gaps := ledgerGaps(runs, forged)
		if len(gaps) != 2 || !strings.Contains(gaps[0], "runs pinned") || !strings.Contains(gaps[1], "row "+row+" ") {
			t.Errorf("ledger gaps %q: want the count mismatch and row %s", gaps, row)
		}
	}
}
