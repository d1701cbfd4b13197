package h2

import (
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
}
