package experiment

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/tcpsim"
)

// TestDebugNetworkContrast prints mean PLT per mode for each access
// network — the paper's core cross-network finding in one view.
func TestDebugNetworkContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, net := range []NetworkKind{Net3G, NetLTE, NetWiFi} {
		for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
			res := Run(Options{Mode: mode, Network: net, Seed: 7})
			t.Logf("%-4s %-4s meanPLT=%6.2fs medianish retx=%4d aborted=%d",
				net, mode, mean(res.PLTSeconds()), res.Retransmissions(), countAborted(res))
		}
	}
}

// wireLog keeps a line for each TCP segment a path carries, up to max,
// from the endpoints whose ID contains match (all when match is empty).
type wireLog struct {
	match string
	max   int
	lines []string
}

// install puts the log on both directions of net's path as a filter
// that drops nothing.
func (w *wireLog) install(net *tcpsim.Network) {
	log := func(p netem.Payload, _ int) bool {
		if seg, ok := p.(*tcpsim.Segment); ok && len(w.lines) < w.max && strings.Contains(seg.From, w.match) {
			w.lines = append(w.lines, fmt.Sprintf("%v %s seq=%d len=%d ack=%d wnd=%d flags=%d retx=%t sack=%v",
				net.Loop().Now(), seg.From, seg.Seq, seg.Len, seg.Ack, seg.Wnd, seg.Flags, seg.Retx, seg.Sack))
		}
		return true
	}
	net.Path().AtoB.SetFilter(log)
	net.Path().BtoA.SetFilter(log)
}

func (w *wireLog) flush(t *testing.T) {
	for _, l := range w.lines {
		t.Log(l)
	}
}

// TestDebugCalibration prints link/TCP diagnostics for one run of each
// mode; it never fails and exists to support parameter calibration.
// Set SPDIER_DEBUG_NET to "lte" or "wifi" to inspect other networks, and
// SPDIER_DEBUG_CONN to a connection ID (or part of one) to print the
// first 800 segments its endpoints sent.
func TestDebugCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	network := NetworkKind(os.Getenv("SPDIER_DEBUG_NET"))
	if network == "" {
		network = Net3G
	}
	var tap func(*tcpsim.Network)
	if match := os.Getenv("SPDIER_DEBUG_CONN"); match != "" {
		wire := wireLog{match: match, max: 800}
		tap = wire.install
		defer wire.flush(t)
	}
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		res := run(Options{Mode: mode, Network: network, Seed: 7}, nil, tap)
		down := resPathDown(res)
		t.Logf("%s: meanPLT=%.2f aborted=%d", mode, mean(res.PLTSeconds()), countAborted(res))
		t.Logf("  down: sent=%d delivered=%d dropQueue=%d dropLoss=%d",
			down.Sent, down.Delivered, down.DroppedQueue, down.DroppedLoss)
		t.Logf("  retx=%d fast=%d idleRestarts=%d spurious=%d",
			res.Recorder.Count(tcpsim.EvRetransmit), res.Recorder.Count(tcpsim.EvFastRetx),
			res.Recorder.Count(tcpsim.EvIdleRestart), res.Recorder.Count(tcpsim.EvSpurious))
		for i, rec := range res.Records {
			if rec.Aborted {
				t.Logf("  aborted page %d: %s objs=%d", i, rec.Page.Name, len(rec.Objects))
				stuck := 0
				for _, or := range rec.Objects {
					if or.Done == 0 && stuck < 6 {
						stuck++
						t.Logf("    stuck obj %d kind=%s size=%d dom=%s disc=%v req=%v fb=%v conn=%q",
							or.Obj.ID, or.Obj.Kind, or.Obj.Size, or.Obj.Domain, or.Discovered, or.Requested, or.FirstByte, or.ConnID)
					}
				}
			}
		}
		// Figure 5-style phase breakdown.
		var init, wait, recv, n float64
		for _, pr := range res.Records {
			for _, or := range pr.Objects {
				if or.Done == 0 {
					continue
				}
				init += or.Init().Seconds()
				wait += or.Wait().Seconds()
				recv += or.Recv().Seconds()
				n++
			}
		}
		t.Logf("  phases: init=%.0fms wait=%.0fms recv=%.0fms (n=%.0f)", init/n*1000, wait/n*1000, recv/n*1000, n)
		for i, pr := range res.Records {
			t.Logf("    page %2d %-22s plt=%6.2fs objs=%d", i, pr.Page.Name, pr.PLT().Seconds(), len(pr.Objects))
		}
		// Dump any connection one of whose ends wrote bytes the other
		// never took delivery of: it was still holding data at the end.
		conns := res.Net.Conns() // client, server, client, server, …
		for i := 0; i+1 < len(conns); i += 2 {
			c, s := conns[i], conns[i+1]
			if c.BytesSentApp != s.BytesRcvdApp || s.BytesSentApp != c.BytesRcvdApp {
				t.Logf("  wedged: %+v\n          %+v", c, s)
			}
		}
		// Where in the 60 s page cycle do RTO retransmissions fall?
		var hist [6]int
		for _, s := range res.Recorder.Filter(tcpsim.EvRetransmit) {
			off := int(s.At.Seconds()) % 60
			hist[off/10]++
		}
		t.Logf("  retx by 10s-decile of page cycle: %v", hist)
		if mode == browser.ModeSPDY {
			n := 0
			for _, s := range res.Recorder.Filter(tcpsim.EvRetransmit) {
				if n < 40 {
					n++
					t.Logf("    %8.2fs %-12s cwnd=%.0f ssth=%.0f infl=%d rto=%.0fms srtt=%.0fms",
						s.At.Seconds(), s.ConnID, s.Cwnd, s.Ssthresh, s.InFlight, s.RTOms, s.SRTTms)
				}
			}
		}
		if mode == browser.ModeHTTP {
			n := 0
			for _, s := range res.Recorder.Filter(tcpsim.EvRetransmit) {
				if int(s.At.Seconds())%60 < 10 && n < 25 {
					n++
					t.Logf("    %8.2fs %-28s cwnd=%.0f ssth=%.0f rto=%.0fms srtt=%.0fms",
						s.At.Seconds(), s.ConnID, s.Cwnd, s.Ssthresh, s.RTOms, s.SRTTms)
				}
			}
		}
	}
}

func resPathDown(r *Result) netem.LinkStats { return r.Net.Path().BtoA.Stats() }

func countAborted(r *Result) int {
	n := 0
	for _, rec := range r.Records {
		if rec != nil && rec.Aborted {
			n++
		}
	}
	return n
}
