package h2

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzStreamFlowControl drives a FlowController with an arbitrary
// interleaving of DATA consumption and stream/connection
// WINDOW_UPDATEs decoded from the fuzz input, checking after every
// operation that:
//
//  1. no window (stream or connection) is ever negative,
//  2. Avail is exactly min(stream window, connection window),
//  3. granted bytes are conserved — every window equals initial +
//     grants − consumptions, and per-stream consumption sums to the
//     connection's,
//  4. rejected operations change no state.
//
// Each input byte pair encodes one op: the first byte selects the kind
// and stream, the second the amount (scaled so both under- and
// over-window requests occur).
func FuzzStreamFlowControl(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x10, 0x41, 0x20, 0x82, 0x7f, 0xc3, 0xff})
	f.Add([]byte{0x01, 0xff, 0x01, 0xff, 0x01, 0xff, 0x01, 0xff})
	f.Add([]byte{0x80, 0x01, 0x00, 0x01, 0x81, 0x01, 0x40, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			initConn   = 1 << 14
			initStream = 1 << 12
		)
		fc := NewFlowController(initConn, initStream)

		// Reference model, maintained independently.
		type ref struct{ window, granted, consumed int64 }
		streams := map[uint32]*ref{}
		ids := []uint32{}
		conn := int64(initConn)
		var connGranted, consumedAll int64

		model := func(id uint32) *ref {
			r := streams[id]
			if r == nil {
				r = &ref{window: initStream}
				streams[id] = r
				ids = append(ids, id)
			}
			return r
		}

		check := func(id uint32) {
			t.Helper()
			r := model(id)
			if fc.ConnWindow() != conn {
				t.Fatalf("conn window %d, model %d", fc.ConnWindow(), conn)
			}
			if got := fc.StreamWindow(id); got != r.window {
				t.Fatalf("stream %d window %d, model %d", id, got, r.window)
			}
			if fc.ConnWindow() < 0 || fc.StreamWindow(id) < 0 {
				t.Fatalf("negative window: conn %d stream %d", fc.ConnWindow(), fc.StreamWindow(id))
			}
			wantAvail := r.window
			if conn < wantAvail {
				wantAvail = conn
			}
			if got := fc.Avail(id); got != wantAvail {
				t.Fatalf("Avail(%d) = %d, want min(%d, %d)", id, got, r.window, conn)
			}
			if err := fc.CheckConservation(ids); err != nil {
				t.Fatalf("conservation: %v", err)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op := data[i]
			// Stream IDs from a small set so ops collide on streams.
			id := uint32(1 + 2*((op>>2)&0x07))
			// Amounts span 1..~2× the stream window, exercising both
			// grantable/consumable and must-reject sizes.
			amt := int64(data[i+1])*33 + 1
			switch op & 0x03 {
			case 0, 1: // consume (twice as likely: DATA dominates)
				r := model(id)
				err := fc.Consume(id, amt)
				if wantErr := amt > r.window || amt > conn; wantErr != (err != nil) {
					t.Fatalf("Consume(%d, %d): err=%v, model wantErr=%v (win %d conn %d)",
						id, amt, err, wantErr, r.window, conn)
				}
				if err == nil {
					r.window -= amt
					r.consumed += amt
					conn -= amt
					consumedAll += amt
				}
			case 2: // stream WINDOW_UPDATE
				r := model(id)
				err := fc.Grant(id, amt)
				if wantErr := r.window > MaxWindow-amt; wantErr != (err != nil) {
					t.Fatalf("Grant(%d, %d): err=%v, model wantErr=%v", id, amt, err, wantErr)
				}
				if err == nil {
					r.window += amt
					r.granted += amt
				}
			case 3: // connection WINDOW_UPDATE
				err := fc.GrantConn(amt)
				if wantErr := conn > MaxWindow-amt; wantErr != (err != nil) {
					t.Fatalf("GrantConn(%d): err=%v, model wantErr=%v", amt, err, wantErr)
				}
				if err == nil {
					conn += amt
					connGranted += amt
				}
			}
			check(id)
		}
		_ = connGranted
	})
}

// FuzzHeaderSizer feeds arbitrary header names/values through the HPACK
// sizer: sizes must be positive, repeats never dearer than first
// emissions, and an indexed hit always exactly one byte. Its
// differential arm prices the same field, between and after enough
// distinct fields to evict it, on the sizer and on the concat-keyed
// reference (sizes_test.go): every price must agree.
func FuzzHeaderSizer(f *testing.F) {
	f.Add("x-custom", "value")
	f.Add(":path", "/index.html")
	f.Add("user-agent", strings.Repeat("a", 300))

	f.Fuzz(func(t *testing.T, name, value string) {
		h := NewHeaderSizer()
		first := h.FieldSize(name, value)
		if first < 1 {
			t.Fatalf("FieldSize = %d, want >= 1", first)
		}
		second := h.FieldSize(name, value)
		if second != 1 {
			t.Fatalf("repeat FieldSize = %d, want indexed cost 1", second)
		}
		if second > first {
			t.Fatalf("repeat (%d) dearer than first (%d)", second, first)
		}

		if strings.IndexByte(name, 0) >= 0 || strings.IndexByte(value, 0) >= 0 {
			return // the reference's joined key is ambiguous here (TestHeaderSizerKeepsNULFieldsApart)
		}
		h, ref := NewHeaderSizer(), newRefSizer()
		same := func(n, v string) {
			t.Helper()
			if got, want := h.FieldSize(n, v), ref.FieldSize(n, v); got != want {
				t.Fatalf("FieldSize(%q, %q) = %d, reference %d", n, v, got, want)
			}
		}
		// The field, then value-derived fillers with the field recurring
		// among them: one more filler than the table holds passes it
		// through eviction at least once, wherever the recurrences fall.
		same(name, value)
		for i := 0; i <= hpackDynamicEntries; i++ {
			same(":path", value+"/"+strconv.Itoa(i))
			if len(value) > 0 && i%(1+int(value[0])%37) == 0 {
				same(name, value)
			}
		}
		same(name, value)
		same(value, name)
	})
}
