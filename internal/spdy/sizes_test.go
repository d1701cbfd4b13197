package spdy

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spdier/internal/sim"
	"spdier/internal/spdy/flatesize"
	"spdier/internal/webpage"
)

const chromeUA = "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0"

// table1Session is every object of a full Table 1 session at seed, page
// by page in request order: the blocks one SPDY connection compresses
// in a run (experiment.GeneratePages draws the same pages).
func table1Session(seed uint64) []*webpage.Object {
	base := sim.NewRNG(seed)
	var objs []*webpage.Object
	for _, spec := range webpage.Table1() {
		objs = append(objs, webpage.Generate(spec, base.Fork(uint64(spec.Index))).Objects...)
	}
	return objs
}

func contentType(k webpage.Kind) string {
	switch k {
	case webpage.KindHTML:
		return "text/html; charset=utf-8"
	case webpage.KindJS:
		return "text/javascript"
	case webpage.KindCSS:
		return "text/css"
	case webpage.KindImg:
		return "image/jpeg"
	}
	return "text/plain"
}

// realFramer writes frames through a live Framer and reports the bytes
// each one put on the wire.
type realFramer struct {
	buf bytes.Buffer
	f   *Framer
}

func newRealFramer() *realFramer {
	r := &realFramer{}
	r.f = NewFramer(&r.buf)
	return r
}

func (r *realFramer) size(t *testing.T, fr Frame) int {
	t.Helper()
	r.buf.Reset()
	if err := r.f.WriteFrame(fr); err != nil {
		t.Fatal(err)
	}
	return r.buf.Len()
}

// TestSizeOracleMatchesRealFramer holds every size the simulator
// charges to the bytes a live Framer writes for the same frames on the
// same session history.
func TestSizeOracleMatchesRealFramer(t *testing.T) {
	t.Run("every frame type", func(t *testing.T) {
		o, real := NewSizeOracle(), newRealFramer()
		for i, fr := range everyFrame() {
			if got, want := o.FrameSize(fr), real.size(t, fr); got != want {
				t.Fatalf("frame %d (%T): oracle %d, real %d", i, fr, got, want)
			}
		}
	})

	// All 20 Table 1 sites, both directions: the map-free sizers, the
	// generic FrameSize over the header maps and the live Framer agree on
	// every block of the session, across several 32 KiB window shifts.
	session := func(t *testing.T, seed uint64, ua string) {
		objs := table1Session(seed)
		if len(objs) < 1300 {
			t.Fatalf("session of %d blocks, want at least 1,300", len(objs))
		}
		fastReq, genericReq, realReq := NewSizeOracle(), NewSizeOracle(), newRealFramer()
		fastResp, genericResp, realResp := NewSizeOracle(), NewSizeOracle(), newRealFramer()
		plain := 0
		for i, obj := range objs {
			sid := uint32(2*i + 1)
			req := SynStream{StreamID: sid, Priority: PriorityForType(string(obj.Kind)), Fin: true,
				Headers: RequestHeaders("GET", "http", obj.Domain, obj.Path, ua)}
			fast, generic, want := fastReq.RequestSize("GET", "http", obj.Domain, obj.Path, ua), genericReq.FrameSize(req), realReq.size(t, req)
			if fast != want || generic != want {
				t.Fatalf("request %d (%s%s): RequestSize %d, FrameSize %d, real %d", i, obj.Domain, obj.Path, fast, generic, want)
			}
			resp := SynReply{StreamID: sid, Headers: ResponseHeaders("200 OK", contentType(obj.Kind), int64(obj.Size))}
			fast, generic, want = fastResp.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size)), genericResp.FrameSize(resp), realResp.size(t, resp)
			if fast != want || generic != want {
				t.Fatalf("response %d (%d bytes): ResponseSize %d, FrameSize %d, real %d", i, obj.Size, fast, generic, want)
			}
			plain += len(fastReq.plain)
		}
		if shifts := plain / (32 << 10); shifts < 3 {
			t.Fatalf("request direction compressed %d bytes: %d window shifts, want several", plain, shifts)
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run("table 1 session/seed "+string(rune('0'+seed)), func(t *testing.T) { session(t, seed, chromeUA) })
	}
	t.Run("table 1 session/no user-agent", func(t *testing.T) { session(t, 1, "") })

	// Blocks that leave the happy path of small, compressible heads.
	rng := rand.New(rand.NewSource(1))
	noise := func(n int) string {
		p := make([]byte, n)
		rng.Read(p)
		return string(p)
	}
	for _, tc := range []struct {
		name   string
		blocks []Headers
	}{
		{"empty header set", []Headers{{}, nil, {}}},
		{"incompressible values: stored blocks", []Headers{{"x-nonce": noise(48)}, {"x-nonce": noise(900)}, {"etag": noise(20000), "x": "y"}}},
		// Literals only, so the block's 16,384th token falls inside the value
		// and the block that follows it starts off a byte boundary.
		{"a block of more than 16,384 tokens", []Headers{{"cookie": noise(40000)}, RequestHeaders("GET", "http", "h.example", "/x", chromeUA)}},
		{"a value longer than the 64 KiB window", []Headers{{"cookie": strings.Repeat("id=0123456789abcdef; ", 7000)}, {"cookie": noise(70000)}, {"x": "y"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, real := NewSizeOracle(), newRealFramer()
			for i, h := range tc.blocks {
				fr := SynReply{StreamID: uint32(2*i + 1), Headers: h}
				if got, want := o.FrameSize(fr), real.size(t, fr); got != want {
					t.Fatalf("block %d: oracle %d, real %d", i, got, want)
				}
			}
		})
	}
	t.Run("ResponseSize formats every content-length as ResponseHeaders does", func(t *testing.T) {
		fast, generic := NewSizeOracle(), NewSizeOracle()
		for _, n := range []int64{0, 9, 10, 12345, -1, -1 << 63, 1<<63 - 1} {
			if got, want := fast.ResponseSize("200 OK", "text/css", n), generic.FrameSize(SynReply{Headers: ResponseHeaders("200 OK", "text/css", n)}); got != want {
				t.Fatalf("content-length %d: ResponseSize %d, FrameSize %d", n, got, want)
			}
		}
	})
}

// TestSizersDoNotAllocate: in steady state (plain buffer grown, first
// block paid) pricing a request or a response allocates nothing.
func TestSizersDoNotAllocate(t *testing.T) {
	objs := table1Session(1)[:64]
	req, resp := NewSizeOracle(), NewSizeOracle()
	pass := func() {
		for _, obj := range objs {
			req.RequestSize("GET", "http", obj.Domain, obj.Path, chromeUA)
			resp.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
		}
	}
	pass()
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Fatalf("RequestSize+ResponseSize allocate %v objects per %d objects", n, len(objs))
	}
}

// TestShelfReusesContexts: a shelf's second run borrows the contexts its
// first run gave back, reset, so it prices a session exactly as fresh
// oracles do; the first run's oracles keep nothing of the shelf; and a
// warm borrow allocates the oracle and no context.
func TestShelfReusesContexts(t *testing.T) {
	objs := table1Session(2)[:40]
	session := func(req, resp *SizeOracle) (sizes []int) {
		for _, obj := range objs {
			sizes = append(sizes, req.RequestSize("GET", "http", obj.Domain, obj.Path, chromeUA),
				resp.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size)))
		}
		return sizes
	}
	want := session(NewSizeOracle(), NewSizeOracle())
	var sh Shelf
	first := []*SizeOracle{sh.NewSizeOracle(), sh.NewSizeOracle()}
	session(first[0], first[1])
	contexts := map[*flatesize.Sizer]bool{first[0].z: true, first[1].z: true}
	sh.Reclaim()
	for _, o := range first {
		if o.z != nil {
			t.Fatal("a reclaimed oracle still holds its context")
		}
	}
	req, resp := sh.NewSizeOracle(), sh.NewSizeOracle()
	if !contexts[req.z] || !contexts[resp.z] || req.z == resp.z {
		t.Fatal("the second run did not borrow the contexts the first gave back")
	}
	if got := session(req, resp); !slices.Equal(got, want) {
		t.Fatalf("on reused contexts a session prices %v, fresh oracles %v", got[:8], want[:8])
	}
	sh.Reclaim()
	if n := testing.AllocsPerRun(20, func() {
		sh.NewSizeOracle()
		sh.Reclaim()
	}); n != 1 {
		t.Fatalf("a warm borrow allocates %v objects, want 1 (the oracle)", n)
	}
	var none *Shelf
	if o := none.NewSizeOracle(); o.z == nil {
		t.Fatal("a nil shelf lent an oracle without a context")
	}
}

// TestSizeOracleCandidates holds the match finder's work on the seed-1
// Table 1 session, in the earlier positions compared a frame
// (BenchmarkSizeOracle's candidates/frame), to what it was measured at
// plus 5%. The level-9 walk compares 252.1 a request and 530.5 a reply:
// a finder that quietly walked again would fail here, and no size would
// tell.
func TestSizeOracleCandidates(t *testing.T) {
	objs := table1Session(1)
	requests, replies := NewSizeOracle(), NewSizeOracle()
	for _, obj := range objs {
		requests.RequestSize("GET", "http", obj.Domain, obj.Path, chromeUA)
		replies.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
	}
	for _, c := range []struct {
		what     string
		o        *SizeOracle
		measured float64
	}{
		{"request", requests, 73.35},
		{"response", replies, 64.06},
	} {
		per := float64(c.o.z.Candidates()) / float64(len(objs))
		t.Logf("%s: %.2f candidates a frame (measured %.2f)", c.what, per, c.measured)
		if per > c.measured*1.05 {
			t.Errorf("%s: %.2f candidates a frame, more than %.2f + 5%%", c.what, per, c.measured)
		}
	}
}

// TestSizeOracleCodes holds the blocks whose Huffman codes were built on
// the seed-1 Table 1 session (BenchmarkSizeOracle's codes/frame) to the
// count measured when the dynamic code's floor landed. Every block was
// priced with built codes before it, and no size tells a floor that has
// quietly stopped settling blocks.
func TestSizeOracleCodes(t *testing.T) {
	objs := table1Session(1)
	requests, replies := NewSizeOracle(), NewSizeOracle()
	for _, obj := range objs {
		requests.RequestSize("GET", "http", obj.Domain, obj.Path, chromeUA)
		replies.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
	}
	for _, c := range []struct {
		what     string
		o        *SizeOracle
		measured int
	}{
		{"request", requests, 1},
		{"response", replies, 3},
	} {
		t.Logf("%s: codes built for %d of %d blocks (measured %d)", c.what, c.o.z.Codes(), len(objs), c.measured)
		if n := c.o.z.Codes(); n > c.measured {
			t.Errorf("%s: codes built for %d blocks, more than the %d measured", c.what, n, c.measured)
		}
	}
}
