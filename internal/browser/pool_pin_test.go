package browser

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"spdier/internal/sim"
	"spdier/internal/webpage"
)

// poolDigest is TestHTTPPoolsPinned's FNV-1a digest.
const poolDigest = 0xf8dacd03b93926ae

// TestHTTPPoolsPinned pins the HTTP pools' decisions on two pages loaded
// one after the other by one browser, beacons on: forty domains of three
// objects, which fill the global budget of 32 and steal sockets, then a
// Table 1 page of 323 objects over 85 domains. For every object it
// hashes the connection that carried it and when it was requested and
// done, and then how many endpoints the network made. Which request
// waits, in what order it leaves its domain's queue and which socket it
// lands on all show in these numbers; the experiment pins hold the same
// end to end, this test names the browser when they move.
func TestHTTPPoolsPinned(t *testing.T) {
	w := newWorld(7, false)
	b := w.browser(DefaultConfig(ModeHTTP), 3)
	h := fnv.New64a()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, page := range []*webpage.Page{flatPage(120, 40), webpage.Generate(webpage.Table1()[14], sim.NewRNG(5))} {
		rec := loadOnce(t, w, b, page)
		if rec.Aborted || len(rec.Objects) != len(page.Objects) {
			t.Fatalf("%s: loaded %d of %d objects (aborted: %t)", page.Name, len(rec.Objects), len(page.Objects), rec.Aborted)
		}
		for _, or := range rec.Objects {
			h.Write([]byte(or.ConnID))
			put(uint64(or.Requested))
			put(uint64(or.Done))
		}
	}
	put(uint64(len(w.net.Conns())))
	if got := h.Sum64(); got != poolDigest {
		t.Fatalf("HTTP pool digest %#x over %d endpoints, want %#x", got, len(w.net.Conns()), uint64(poolDigest))
	}
}
