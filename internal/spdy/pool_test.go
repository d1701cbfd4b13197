package spdy

import (
	"bytes"
	"compress/zlib"
	"errors"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// sessionFrames is a representative header-bearing frame sequence that
// exercises the shared compression context across several blocks.
func sessionFrames() []Frame {
	return []Frame{
		SynStream{StreamID: 1, Priority: 2, Fin: true,
			Headers: RequestHeaders("GET", "http", "pool.example.com", "/", "spdier-test")},
		SynReply{StreamID: 1,
			Headers: ResponseHeaders("200 OK", "text/html", 1234)},
		SynStream{StreamID: 3, Priority: 0, Fin: true,
			Headers: RequestHeaders("GET", "http", "pool.example.com", "/logo.png", "spdier-test")},
		HeadersFrame{StreamID: 3, Fin: true,
			Headers: Headers{"x-trailer": "done"}},
	}
}

func writeSession(t *testing.T) (*Framer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	tx := NewFramer(&buf)
	for _, fr := range sessionFrames() {
		if err := tx.WriteFrame(fr); err != nil {
			t.Fatalf("write %T: %v", fr, err)
		}
	}
	return tx, &buf
}

// TestPooledFramerByteIdentity proves a framer built from recycled zlib
// contexts emits the identical wire bytes, and decodes them to identical
// frames, as one whose contexts were freshly constructed.
func TestPooledFramerByteIdentity(t *testing.T) {
	tx1, buf1 := writeSession(t)
	rx1 := NewFramer(bytes.NewBuffer(buf1.Bytes()))
	want := make([]Frame, 0, 4)
	for range sessionFrames() {
		fr, err := rx1.ReadFrame()
		if err != nil {
			t.Fatalf("first read: %v", err)
		}
		want = append(want, fr)
	}
	// Recycle both sides' contexts, then run the same session again. The
	// pool hands back warm contexts whose Reset state must be
	// indistinguishable from new.
	tx1.Release()
	rx1.Release()

	tx2, buf2 := writeSession(t)
	defer tx2.Release()
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("pooled compressor output differs from fresh: %d vs %d bytes", buf1.Len(), buf2.Len())
	}
	rx2 := NewFramer(bytes.NewBuffer(buf2.Bytes()))
	defer rx2.Release()
	for i := range want {
		fr, err := rx2.ReadFrame()
		if err != nil {
			t.Fatalf("pooled read %d: %v", i, err)
		}
		if !reflect.DeepEqual(fr, want[i]) {
			t.Fatalf("pooled frame %d mismatch:\n got %+v\nwant %+v", i, fr, want[i])
		}
	}
}

func TestFramerUseAfterRelease(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf)
	if err := f.WriteFrame(Ping{ID: 1}); err != nil {
		t.Fatalf("write before release: %v", err)
	}
	f.Release()
	f.Release() // idempotent
	if err := f.WriteFrame(Ping{ID: 2}); !errors.Is(err, ErrFramerReleased) {
		t.Fatalf("WriteFrame after Release: got %v, want ErrFramerReleased", err)
	}
	if _, err := f.ReadFrame(); !errors.Is(err, ErrFramerReleased) {
		t.Fatalf("ReadFrame after Release: got %v, want ErrFramerReleased", err)
	}
}

// TestFramerReleaseRecyclesContexts holds Release to its purpose: a
// framer that writes or reads one header block and is released costs a
// small fraction of the zlib context it would build fresh, because the
// next NewFramer takes the released one back from the pool. A release
// that stops putting its context back makes every cycle pay a whole
// fresh context (800 KB for a deflate writer, 40 KB for an inflate
// reader, against some 250 B and 1.4 KB a warm cycle).
func TestFramerReleaseRecyclesContexts(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops a quarter of its Puts at random under the race detector, so no context is sure to come back")
	}
	syn := sessionFrames()[0]
	tx, wire := writeSession(t)
	tx.Release()
	var r bytes.Reader
	rw := struct {
		io.Reader
		io.Writer
	}{&r, io.Discard}
	var fresh bytes.Buffer
	for _, c := range []struct {
		name         string
		cycle, fresh func()
	}{
		{"compressor", func() {
			f := NewFramer(&rw)
			if err := f.WriteFrame(syn); err != nil {
				t.Fatal(err)
			}
			f.Release()
		}, func() {
			zw, err := zlib.NewWriterLevelDict(&fresh, zlib.BestCompression, headerDictionary)
			if err != nil {
				t.Fatal(err)
			}
			zw.Write([]byte("a"))
			zw.Flush()
		}},
		{"decompressor", func() {
			r.Reset(wire.Bytes())
			f := NewFramer(&rw)
			if _, err := f.ReadFrame(); err != nil {
				t.Fatal(err)
			}
			f.Release()
		}, func() {
			r.Reset(wire.Bytes()[18:]) // the SYN_STREAM's header block
			if _, err := zlib.NewReaderDict(&r, headerDictionary); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		cycle, context := bytesPerRun(100, c.cycle), bytesPerRun(20, c.fresh)
		t.Logf("%s: a cycle allocates %d bytes, a fresh context %d", c.name, cycle, context)
		if cycle > context/4 {
			t.Errorf("%s: NewFramer+Release allocates %d bytes a cycle, a fresh context is %d: Release does not recycle it", c.name, cycle, context)
		}
	}
}

// bytesPerRun is the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
