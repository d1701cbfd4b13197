package browser

import (
	"testing"
	"time"

	"spdier/internal/tcpsim"
	"spdier/internal/trace"
)

// TestConnNames pins how a pooled HTTP connection is named: "h" and the
// browser's connection count padded to three digits — wider from the
// thousandth on, and a Table 1 session opens some 1,400 — then the
// domain; ":c" and ":s" on the two endpoints. The proxy end's probe
// samples and the object's record carry the same name.
func TestConnNames(t *testing.T) {
	for _, tc := range []struct {
		seq  int
		want string
	}{
		{1, "h001.d00.bench.example"},
		{9, "h009.d00.bench.example"},
		{10, "h010.d00.bench.example"},
		{999, "h999.d00.bench.example"},
		{1000, "h1000.d00.bench.example"},
		{1400, "h1400.d00.bench.example"},
	} {
		seq, want := tc.seq, tc.want
		w := newWorld(1, false)
		cfg := DefaultConfig(ModeHTTP)
		cfg.Beacons = false
		probe := tcpsim.NewRecorder()
		cfg.ProxyTCP.Probe = probe
		b := w.browser(cfg, 3)
		b.connSeq = seq - 1
		rec := loadOnce(t, w, b, flatPage(1, 1))
		if got := rec.Objects[0].ConnID; got != want {
			t.Errorf("connection %d: the object's record names it %q, want %q", seq, got, want)
		}
		conns := w.net.Conns()
		if len(conns) != 2 || conns[0].ID() != want+":c" || conns[1].ID() != want+":s" {
			t.Errorf("connection %d: endpoints %v, want %s:c and %s:s", seq, conns, want, want)
		}
		if probe.Len() == 0 {
			t.Fatalf("connection %d: the proxy end took no probe sample", seq)
		}
		probe.Each(func(s tcpsim.ProbeSample) bool {
			if s.ConnID != want+":s" {
				t.Errorf("connection %d: probe sample names %q, want %s:s", seq, s.ConnID, want)
				return false
			}
			return true
		})
	}
}

// connCycle returns a function that loads a page of one object on a
// warm browser. With idleOut it then runs the loop past the idle timeout
// and both FINs, so every call opens a connection, sends a request over
// it, takes the response, idles and closes; without, calls come ten
// seconds apart and share one connection that never idles out.
func connCycle(tb testing.TB, idleOut bool) func() {
	cfg := DefaultConfig(ModeHTTP)
	cfg.Beacons = false
	w := newWorld(1, false)
	br := w.browser(cfg, 3)
	page := flatPage(1, 1)
	gap := 10 * time.Second
	if idleOut {
		gap = cfg.IdleConnTimeout + 10*time.Second
	}
	opened := 0
	load := func() {
		var rec *trace.PageRecord
		br.LoadPage(page, func(pr *trace.PageRecord) { rec = pr })
		w.loop.Run(w.loop.Now().Add(gap))
		if rec == nil || rec.Aborted || len(rec.Objects) != 1 {
			tb.Fatalf("load did not complete: %+v", rec)
		}
		opened++
		if n := len(w.net.Conns()) / 2; idleOut && n != opened || !idleOut && n != 1 {
			tb.Fatalf("%d connections opened by %d loads (idling out: %v)", n, opened, idleOut)
		}
	}
	for i := 0; i < 8; i++ {
		load()
	}
	return load
}

// TestOpenConnAllocations is what one pooled HTTP connection costs from
// open to closed — handshake, one request and its response, the idle
// timer, both FINs — over what the request costs on a connection that is
// already open: the pair record in tcpsim and the handle here, with the
// names cut from shared chunks and every array on loan from the run (it
// was 29 objects). The budget of 4 leaves room for what grows now and
// then: the lists of connections, the name chunks, the wheel's buckets
// under timers forty seconds apart.
func TestOpenConnAllocations(t *testing.T) {
	invOn = false
	defer EnableInvariants()
	base := testing.AllocsPerRun(20, connCycle(t, false))
	full := testing.AllocsPerRun(20, connCycle(t, true))
	t.Logf("a load on an open connection allocates %v objects, on a new one %v: %v for the connection", base, full, full-base)
	if full-base > 4 {
		t.Fatalf("a connection costs %v objects from open to closed, budget 4", full-base)
	}
}
