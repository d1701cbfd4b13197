package browser

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"spdier/internal/proxy"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
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
		if len(conns) != 2 || conns[0].ID != want+":c" || conns[1].ID != want+":s" {
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
// already open. Nothing of it is an object of its own: the pair record
// comes from tcpsim's pair slab and the handle from the browser's
// handle slab, the names are cut from shared chunks and every array is
// on loan from the run (it was 29 objects). It reads 0; the budget of 1
// leaves room for what grows now and then — the lists of connections, a
// chunk of a slab, the wheel's buckets under timers forty seconds apart
// — and for nothing that comes with every connection.
func TestOpenConnAllocations(t *testing.T) {
	invOn = false
	defer EnableInvariants()
	base := testing.AllocsPerRun(20, connCycle(t, false))
	full := testing.AllocsPerRun(20, connCycle(t, true))
	t.Logf("a load on an open connection allocates %v objects, on a new one %v: %v for the connection", base, full, full-base)
	if full-base > 1 {
		t.Fatalf("a connection costs %v objects from open to closed, budget 1", full-base)
	}
}

// TestRecordSizes holds the records a pooled request is made of to the
// sizes the slabs were fitted to, and each slab's cap to its size class.
// A fetch embeds its proxy.Exchange and a queue link in 152 bytes, which
// the exchange's 104 make room for; every arm carves one per object. A
// handle, a pool and a connection slot are cut from chunks of
// handleChunk, poolChunk and slotChunk, a beacon and its object from
// chunks of beaconChunk and beaconObjChunk; each cap must fill its
// chunk's class, so that one record more would move the chunk to the
// next.
func TestRecordSizes(t *testing.T) {
	if s := unsafe.Sizeof(fetch{}); s > 152 {
		t.Errorf("fetch is %d bytes, want at most 152", s)
	}
	if s := unsafe.Sizeof(proxy.Exchange{}); s > 104 {
		t.Errorf("proxy.Exchange is %d bytes, want at most 104", s)
	}
	for _, c := range []struct {
		name  string
		size  uintptr
		limit int
		chunk func(n int) uint64
	}{
		{"connHandle", unsafe.Sizeof(connHandle{}), handleChunk, chunkBytes[connHandle]},
		{"domainPool", unsafe.Sizeof(domainPool{}), poolChunk, chunkBytes[domainPool]},
		{"slot", unsafe.Sizeof((*connHandle)(nil)), slotChunk, chunkBytes[*connHandle]},
		{"beacon", unsafe.Sizeof(beacon{}), beaconChunk, chunkBytes[beacon]},
		{"beacon object", unsafe.Sizeof(webpage.Object{}), beaconObjChunk, chunkBytes[webpage.Object]},
	} {
		full, over := c.chunk(c.limit), c.chunk(c.limit+1)
		t.Logf("%s: %d bytes; a chunk of %d takes %d bytes of heap, %d bytes a record; of %d, %d", c.name, c.size, c.limit, full, full/uint64(c.limit), c.limit+1, over)
		if full == over {
			t.Errorf("%s: a chunk of %d lands in the %d-byte class, which holds one more: refit the cap", c.name, c.limit, full)
		}
	}
}

// chunkSink keeps chunkBytes' chunks on the heap.
var chunkSink unsafe.Pointer

// chunkBytes is what the allocator takes for a slab's chunk of n Ts.
func chunkBytes[T any](n int) uint64 {
	const rounds = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		s := tcpsim.NewSlab[T](n)
		chunkSink = unsafe.Pointer(&s.Take(n)[0])
	}
	runtime.ReadMemStats(&after)
	chunkSink = nil
	return (after.TotalAlloc - before.TotalAlloc) / rounds
}
