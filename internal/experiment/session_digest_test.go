package experiment

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/webpage"
)

var updateSessionDigests = flag.Bool("update-session-digests", false, "rewrite testdata/session_digests.json")

// sessionDigestConfigs are the multiplexed-session configurations that
// neither a golden report nor bench/testdata/digests.json reaches:
// striped SPDY early- and late-bound, the 20-session WiFi case, h2 in
// both framings, h2 with its windows binding under bursty loss, QUIC
// with and without 0-RTT and under the same bursty loss (its undo and
// persistent-congestion paths), and the sender policies below.
type sessionDigestConfig struct {
	name string
	opts Options
}

var sessionDigestConfigs = []sessionDigestConfig{
	{"spdy/3g/sessions=4", Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 4}},
	{"spdy/3g/sessions=4/late", Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 4, SPDYLateBinding: true}},
	{"spdy/wifi/sessions=20", Options{Mode: browser.ModeSPDY, Network: NetWiFi, SPDYSessions: 20}},
	{"h2/3g", Options{Mode: browser.ModeH2, Network: Net3G}},
	{"h2/3g/equal-framing", Options{Mode: browser.ModeH2, Network: Net3G, H2EqualFraming: true}},
	{"h2/lte/ge-loss", Options{Mode: browser.ModeH2, Network: NetLTE,
		Impair: netem.Impairments{GEGoodToBad: 0.005, GEBadToGood: 0.3, GELossBad: 0.5}}},
	{"quic/3g", Options{Mode: browser.ModeQUIC, Network: Net3G}},
	{"quic/3g/no-0rtt", Options{Mode: browser.ModeQUIC, Network: Net3G, QUICNo0RTT: true}},
	{"quic/lte/ge-loss", Options{Mode: browser.ModeQUIC, Network: NetLTE,
		Impair: netem.Impairments{GEGoodToBad: 0.005, GEBadToGood: 0.3, GELossBad: 0.5}}},
}

// senderPolicyConfigs crosses the sender-side policies tcpsim.Conn and
// QUICConn share — the idle restart with and without the paper's RTT
// reset, the metrics cache, the congestion controller, the spurious-loss
// undo — with the TCP arms and QUIC on 3G, where the radio idles between
// pages and every one of them runs.
func senderPolicyConfigs() []sessionDigestConfig {
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"rtt-reset", func(o *Options) { o.ResetRTTAfterIdle = true }},
		{"no-ssai", func(o *Options) { o.SlowStartAfterIdleOff = true }},
		{"no-metrics", func(o *Options) { o.NoMetricsCache = true }},
		{"reno", func(o *Options) { o.CC = "reno" }},
		{"no-undo", func(o *Options) { o.DisableUndo = true }},
	}
	var out []sessionDigestConfig
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY, browser.ModeQUIC} {
		for _, v := range variants {
			opts := Options{Mode: mode, Network: Net3G}
			v.set(&opts)
			out = append(out, sessionDigestConfig{fmt.Sprintf("%s/3g/%s", mode, v.name), opts})
		}
	}
	return out
}

// sessionDigest condenses what one run simulated into a line a diff can
// be read from: the event count and the loss counters in the clear, the
// radio energy as its float bits, the PLTs as a hash over theirs.
func sessionDigest(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	plts := res.PLTSeconds()
	for _, p := range plts {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	return fmt.Sprintf("seed=%d fired=%d retx=%d spurious=%d incomplete=%d radio_mj=%016x plts=%d:%016x",
		res.Opts.Seed, res.Fired, res.Retransmissions(), res.Recorder.SpuriousRetransmissions(),
		res.Incomplete, math.Float64bits(res.RadioMJ), len(plts), h.Sum64())
}

// TestSessionDigests holds every multiplexed-session configuration to
// the per-run digests recorded before the four proxy sessions and three
// browser handle families were merged into one core, and every sender
// policy to those recorded before tcpsim.Conn and QUICConn were put on
// one sender core. Fired is in every
// digest, so an added, dropped or reordered timer moves it even when no
// PLT does. The file is rewritten only by
// `go test -run TestSessionDigests ./internal/experiment/ -update-session-digests`
// (the flag after the package: go test stops reading packages at a flag
// it does not know).
func TestSessionDigests(t *testing.T) {
	got := make(map[string]string)
	for _, c := range append(sessionDigestConfigs, senderPolicyConfigs()...) {
		for seed := uint64(1); seed <= 3; seed++ {
			opts := c.opts
			opts.Seed = seed
			opts.Sites = webpage.Table1()[:6]
			got[fmt.Sprintf("%s/%d", c.name, seed)] = sessionDigest(Run(opts))
		}
	}
	path := filepath.Join("testdata", "session_digests.json")
	if *updateSessionDigests {
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
		t.Fatalf("no digest file (run with -update-session-digests to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d digests committed, %d runs made", len(want), len(got))
	}
	for key, g := range got {
		if w := want[key]; g != w {
			t.Errorf("%s drifted:\n got  %s\n want %s", key, g, w)
		}
	}
}
