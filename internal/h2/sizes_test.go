package h2

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"spdier/internal/sim"
	"spdier/internal/webpage"
)

const chromeUA = "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0"

// refSizer is the sizer as it was first written, kept as the reference
// HeaderSizer is held against: the dynamic table keyed by
// name+"\x00"+value, its FIFO a slice re-sliced from the front. It
// allocates a key per field and is wrong for fields that themselves
// hold a NUL (("a\x00b","c") and ("a","b\x00c") share a key); no
// simulated header has one, and on every other input the two must agree
// field for field.
type refSizer struct {
	dyn   map[string]bool
	order []string
}

func newRefSizer() *refSizer { return &refSizer{dyn: make(map[string]bool)} }

var refStaticPairs = map[string]bool{
	":method\x00GET":                  true,
	":scheme\x00http":                 true,
	":scheme\x00https":                true,
	":status\x00200":                  true,
	"accept-encoding\x00gzip,deflate": true,
}

func (h *refSizer) FieldSize(name, value string) int {
	key := name + "\x00" + value
	if refStaticPairs[key] || h.dyn[key] {
		return 1
	}
	n := 1 + 1 + len(value)
	if !staticNames[name] {
		n += 1 + len(name)
	}
	if len(h.order) >= hpackDynamicEntries {
		delete(h.dyn, h.order[0])
		h.order = h.order[1:]
	}
	h.dyn[key] = true
	h.order = append(h.order, key)
	return n
}

func (h *refSizer) RequestSize(method, scheme, host, path, userAgent string) int {
	n := FrameHeaderSize
	n += h.FieldSize(":method", method)
	n += h.FieldSize(":scheme", scheme)
	n += h.FieldSize(":authority", host)
	n += h.FieldSize(":path", path)
	n += h.FieldSize("accept", "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8")
	n += h.FieldSize("accept-encoding", "gzip,deflate,sdch")
	n += h.FieldSize("accept-language", "en-US,en;q=0.8")
	if userAgent != "" {
		n += h.FieldSize("user-agent", userAgent)
	}
	return n
}

func (h *refSizer) ResponseSize(status, contentType string, contentLength int64) int {
	n := FrameHeaderSize
	n += h.FieldSize(":status", statusCode(status))
	n += h.FieldSize("content-type", contentType)
	n += h.FieldSize("content-length", strconv.FormatInt(contentLength, 10))
	n += h.FieldSize("server", "spdier-origin/1.0")
	return n
}

// table1Session is every object of a full Table 1 session at seed, page
// by page in request order: the blocks one h2 connection prices in a
// run (experiment.GeneratePages draws the same pages).
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

// TestHeaderSizerMatchesReference prices whole Table 1 sessions, both
// directions, on the sizer and on the reference side by side: every
// block must cost the same. A session is some 2,500 blocks a direction
// over a 128-entry table, so both directions run through eviction many
// times over (the request side installs a new :path on almost every
// block, the response side a new content-length).
func TestHeaderSizerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		objs := table1Session(seed)
		if len(objs) < 2500 {
			t.Fatalf("seed %d: session of %d blocks, want at least 2500", seed, len(objs))
		}
		for _, ua := range []string{chromeUA, ""} {
			req, refReq := NewHeaderSizer(), newRefSizer()
			resp, refResp := NewHeaderSizer(), newRefSizer()
			for i, o := range objs {
				got := req.RequestSize("GET", "http", o.Domain, o.Path, ua)
				if want := refReq.RequestSize("GET", "http", o.Domain, o.Path, ua); got != want {
					t.Fatalf("seed %d block %d: RequestSize(%s%s) = %d, reference %d", seed, i, o.Domain, o.Path, got, want)
				}
				got = resp.ResponseSize("200 OK", contentType(o.Kind), int64(o.Size))
				if want := refResp.ResponseSize("200 OK", contentType(o.Kind), int64(o.Size)); got != want {
					t.Fatalf("seed %d block %d: ResponseSize(%s, %d) = %d, reference %d", seed, i, o.Kind, o.Size, got, want)
				}
			}
		}
	}

	// content-length priced through FieldSize as well as ResponseSize, on
	// one table, through eviction: a value in canonical decimal is the
	// entry ResponseSize installs for that length, and a value that only
	// looks like one — a sign, a leading zero, a space, an overflow — is an
	// entry of its own.
	lengths := []int64{0, 1, 7, 42, 1380, 65535, 123456, -1, -42, math.MaxInt64, math.MinInt64}
	values := []string{"0", "7", "42", "-42", "9223372036854775807", "-9223372036854775808",
		"00", "007", "+7", "-0", " 7", "7 ", "", "0x2a", "4e1", "-", "99999999999999999999", "−7"}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed)
		h, ref := NewHeaderSizer(), newRefSizer()
		for i := 0; i < 6*hpackDynamicEntries; i++ {
			var got, want int
			var what string
			switch n := int64(rng.Intn(400)); rng.Intn(4) {
			case 0:
				n = lengths[rng.Intn(len(lengths))]
				fallthrough
			case 1:
				got, want = h.ResponseSize("200 OK", "image/jpeg", n), ref.ResponseSize("200 OK", "image/jpeg", n)
				what = fmt.Sprintf("ResponseSize(%d)", n)
			case 2:
				v := strconv.FormatInt(n, 10)
				got, want = h.FieldSize("content-length", v), ref.FieldSize("content-length", v)
				what = fmt.Sprintf("FieldSize(content-length, %q)", v)
			case 3:
				v := values[rng.Intn(len(values))]
				if rng.Bool(0.5) {
					v = "0" + strconv.FormatInt(n, 10)
				}
				got, want = h.FieldSize("content-length", v), ref.FieldSize("content-length", v)
				what = fmt.Sprintf("FieldSize(content-length, %q)", v)
			}
			if got != want {
				t.Fatalf("seed %d step %d: %s = %d, reference %d", seed, i, what, got, want)
			}
		}
	}
}

// TestHeaderSizerKeepsNULFieldsApart: two fields whose name and value
// join to the same bytes around a NUL are different fields. The
// reference's joined key took the second for a repeat of the first and
// charged it one byte.
func TestHeaderSizerKeepsNULFieldsApart(t *testing.T) {
	h, ref := NewHeaderSizer(), newRefSizer()
	h.FieldSize("a\x00b", "c")
	ref.FieldSize("a\x00b", "c")
	if got, want := h.FieldSize("a", "b\x00c"), 1+1+len("b\x00c")+1+len("a"); got != want {
		t.Fatalf("FieldSize(a, b\\x00c) after (a\\x00b, c) = %d, want the literal cost %d", got, want)
	}
	if got := ref.FieldSize("a", "b\x00c"); got != 1 {
		t.Fatalf("reference priced the colliding field at %d; it is kept because it conflates the two", got)
	}
	if got := h.FieldSize("a\x00b", "c"); got != 1 {
		t.Fatalf("first field no longer indexed: %d", got)
	}
}

// TestHeaderSizerDoesNotAllocate: a block whose fields the table holds
// is priced without allocating, content-length included, and so is one
// that installs a new length: the entry is the number, not its digits.
func TestHeaderSizerDoesNotAllocate(t *testing.T) {
	objs := table1Session(1)[:40] // 40 paths and 40 lengths fit one table
	req, resp := NewHeaderSizer(), NewHeaderSizer()
	pass := func() {
		for _, o := range objs {
			req.RequestSize("GET", "http", o.Domain, o.Path, chromeUA)
			resp.ResponseSize("200 OK", contentType(o.Kind), int64(o.Size))
		}
	}
	pass()
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Fatalf("a warm request+response pass over %d objects allocates %v objects, want 0", len(objs), n)
	}
	// Every block below installs one new field (a fresh length) and
	// evicts as the table fills: no allocation for the entry, none for
	// the ring, and — once the table has been full — none for the map.
	size := int64(1 << 40)
	install := func() {
		size++
		resp.ResponseSize("200 OK", "image/jpeg", size)
	}
	for i := 0; i < 4*hpackDynamicEntries; i++ {
		install()
	}
	if n := testing.AllocsPerRun(4*hpackDynamicEntries, install); n != 0 {
		t.Fatalf("a response installing one field allocates %v objects, want 0", n)
	}
	// A field the caller already holds as a string is installed as is.
	paths := make([]string, 4*hpackDynamicEntries+1)
	for i := range paths {
		paths[i] = "/img/" + strconv.Itoa(i)
	}
	next := 0
	if n := testing.AllocsPerRun(len(paths)-1, func() {
		req.FieldSize(":path", paths[next])
		next++
	}); n != 0 {
		t.Fatalf("installing a field the caller holds allocates %v objects, want 0 (no key is built, the ring does not grow)", n)
	}
}

// BenchmarkHeaderSizer prices one direction of a full Table 1 session
// (seed 1, request order) per iteration on a fresh sizer, as
// browser.openMux and proxy.hpackHead make one per connection, and
// reports the cost per block.
func BenchmarkHeaderSizer(b *testing.B) {
	objs := table1Session(1)
	b.Run("request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := NewHeaderSizer()
			for _, o := range objs {
				sinkSize += h.RequestSize("GET", "http", o.Domain, o.Path, chromeUA)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(objs)), "ns/block")
	})
	b.Run("response", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := NewHeaderSizer()
			for _, o := range objs {
				sinkSize += h.ResponseSize("200 OK", contentType(o.Kind), int64(o.Size))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(objs)), "ns/block")
	})
}

var sinkSize int
