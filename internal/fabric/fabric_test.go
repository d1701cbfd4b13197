// Integration tests for the sweep fabric. The worker processes are
// re-execs of this test binary: TestMain diverts into WorkerMain when
// the SPDYSIM_FABRIC_WORKER gate is set, so the tests exercise the real
// spawn/frame/respawn machinery end to end.
package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/experiment"
	"spdier/internal/webpage"
)

func TestMain(m *testing.M) {
	if os.Getenv("SPDYSIM_FABRIC_WORKER") == "1" {
		os.Exit(WorkerMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// testCondition is the shared sweep the integration tests compare
// across execution paths: small site slice so a shard folds in well
// under a second even with -race.
func testCondition(runs int) (experiment.Harness, experiment.Options) {
	h := experiment.Harness{Runs: runs, Seed: 1}
	base := experiment.Options{
		Mode:    browser.ModeHTTP,
		Network: experiment.NetWiFi,
		Sites:   webpage.Table1()[:2],
	}
	return h, base
}

func newPLTShard(t testing.TB) func() experiment.Folder {
	t.Helper()
	if _, ok := experiment.NewFolder("plt"); !ok {
		t.Fatal(`folder "plt" not registered`)
	}
	return func() experiment.Folder {
		f, _ := experiment.NewFolder("plt")
		return f
	}
}

// encodeSweep runs the sweep on r and returns the folded accumulator's
// canonical bytes — the unit of the fabric's bit-identity contract.
func encodeSweep(t testing.TB, r *experiment.Runner, runs int) []byte {
	t.Helper()
	h, base := testCondition(runs)
	f := r.SweepStream(h, base, newPLTShard(t))
	enc, err := experiment.EncodeFolder(f)
	if err != nil {
		t.Fatalf("encoding sweep result: %v", err)
	}
	return enc
}

func newTestCoordinator(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg.WorkerCmd = []string{exe}
	cfg.WorkerEnv = append(cfg.WorkerEnv, "SPDYSIM_FABRIC_WORKER=1")
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFabricBitEquality is the fabric's headline contract: the merged
// accumulator bytes are identical to the in-process engine at every
// worker count, and every shard actually travelled through a worker
// process.
func TestFabricBitEquality(t *testing.T) {
	const runs = 48
	want := encodeSweep(t, experiment.NewRunner(1), runs)
	for _, workers := range []int{1, 3, 8} {
		var progress atomic.Int64
		c := newTestCoordinator(t, Config{
			Workers:    workers,
			OnProgress: func(n int) { progress.Add(int64(n)) },
		})
		r := experiment.NewRunner(0)
		r.SetShardExecutor(c)
		got := encodeSweep(t, r, runs)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: fabric bytes differ from in-process (%d vs %d bytes)", workers, len(got), len(want))
		}
		if st := c.Stats(); st.ShardsRemote != experiment.ShardCount(runs) {
			t.Errorf("workers=%d: %d of %d shards went remote", workers, st.ShardsRemote, experiment.ShardCount(runs))
		}
		if progress.Load() != runs {
			t.Errorf("workers=%d: progress frames credited %d runs, want %d", workers, progress.Load(), runs)
		}
	}
}

// TestFabricWorkerKill SIGKILLs a worker mid-shard and asserts the
// coordinator respawns a replacement and the sweep still completes
// byte-identically.
func TestFabricWorkerKill(t *testing.T) {
	const runs = 64
	want := encodeSweep(t, experiment.NewRunner(1), runs)
	c := newTestCoordinator(t, Config{Workers: 2})
	r := experiment.NewRunner(0)
	r.SetShardExecutor(c)

	killed := make(chan int, 1)
	go func() {
		// Kill the first worker that appears; at that moment its first
		// shard job is already on its stdin.
		for i := 0; i < 2000; i++ {
			if pids := c.WorkerPIDs(); len(pids) > 0 {
				syscall.Kill(pids[0], syscall.SIGKILL)
				killed <- pids[0]
				return
			}
			time.Sleep(time.Millisecond)
		}
		killed <- 0
	}()

	got := encodeSweep(t, r, runs)
	if pid := <-killed; pid == 0 {
		t.Fatal("no worker PID ever appeared; nothing was killed")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fabric bytes differ from in-process after worker kill")
	}
	if st := c.Stats(); st.Respawns < 1 {
		t.Errorf("killed a worker mid-shard but Respawns = %d", st.Respawns)
	}
}

// TestFabricResume checkpoints a sweep, hand-truncates the journal to
// simulate a coordinator killed mid-sweep, and asserts a resumed run
// replays exactly the journaled shards, recomputes only the missing
// ones, and produces the same bytes.
func TestFabricResume(t *testing.T) {
	const runs = 48
	dir := t.TempDir()
	want := encodeSweep(t, experiment.NewRunner(1), runs)
	shards := experiment.ShardCount(runs)

	c1 := newTestCoordinator(t, Config{Workers: 2, CheckpointDir: dir})
	r1 := experiment.NewRunner(0)
	r1.SetShardExecutor(c1)
	if got := encodeSweep(t, r1, runs); !bytes.Equal(got, want) {
		t.Fatal("checkpointed sweep bytes differ from in-process")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a coordinator killed after one shard: keep the header and
	// the first record, drop the rest (plus a torn half-record, which
	// resume must tolerate).
	matches, err := filepath.Glob(filepath.Join(dir, "sweep-*.journal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one journal in %s, got %v (err %v)", dir, matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < shards+1 {
		t.Fatalf("journal has %d lines, want header + %d records", len(lines), shards)
	}
	truncated := append([]byte{}, lines[0]...)
	truncated = append(truncated, lines[1]...)
	truncated = append(truncated, lines[2][:len(lines[2])/2]...) // torn tail
	if err := os.WriteFile(matches[0], truncated, 0o666); err != nil {
		t.Fatal(err)
	}

	var progress atomic.Int64
	c2 := newTestCoordinator(t, Config{
		Workers:       2,
		CheckpointDir: dir,
		Resume:        true,
		OnProgress:    func(n int) { progress.Add(int64(n)) },
	})
	r2 := experiment.NewRunner(0)
	r2.SetShardExecutor(c2)
	got := encodeSweep(t, r2, runs)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed sweep bytes differ from in-process")
	}
	st := c2.Stats()
	if st.ShardsReplayed != 1 {
		t.Errorf("resume replayed %d shards, want 1 (the surviving journal record)", st.ShardsReplayed)
	}
	if st.ShardsRemote != shards-1 {
		t.Errorf("resume recomputed %d shards, want %d (only the missing ones)", st.ShardsRemote, shards-1)
	}
	if progress.Load() != runs {
		t.Errorf("resume credited %d runs of progress, want %d (replayed + recomputed)", progress.Load(), runs)
	}

	// A second resume replays everything: the journal was repaired and
	// completed by the first resume.
	c3 := newTestCoordinator(t, Config{Workers: 1, CheckpointDir: dir, Resume: true})
	r3 := experiment.NewRunner(0)
	r3.SetShardExecutor(c3)
	if got := encodeSweep(t, r3, runs); !bytes.Equal(got, want) {
		t.Errorf("second resume bytes differ from in-process")
	}
	if st := c3.Stats(); st.ShardsReplayed != shards || st.ShardsRemote != 0 {
		t.Errorf("second resume: replayed %d / remote %d, want %d / 0", st.ShardsReplayed, st.ShardsRemote, shards)
	}
}

// TestJournalRefusesForeignSweep guards the fingerprint check: a journal
// written for one sweep must not resume another.
func TestJournalRefusesForeignSweep(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, "aaaabbbbccccdddd0000", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, "fp0", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Same 16-char filename prefix, different full fingerprint: the
	// header check must reject it.
	if _, err := OpenJournal(dir, "aaaabbbbccccdddd1111", true); err == nil {
		t.Fatal("journal resumed against a different sweep fingerprint")
	}
}

// unversionedKey is the cache key testCondition's Options had before the
// key was derived from the struct: hand-ordered fields, no version.
const unversionedKey = "net=wifi|mode=http|seed=0|think=60000000000|ping=false,2000000000,600|" +
	"ssai_off=false|rttreset=false|cc=cubic|nomcache=false|sess=1|latebind=false|pipe=false|" +
	"nobeacons=false|fastorigin=false|noundo=false|lean=false|tlp=false|rack=false|frto=false|" +
	"h2eq=false|q0off=false|xlat=0|promo=0|noloss=false|sample=500000000|pstride=4|" +
	"sites=[1,Finance,134.8,626.9,37.6,28.6,41.3,64.9][2,Entertainment,160.6,2197.3,36.3,16.5,28,116.1]"

// TestJournalUnderTheUnversionedKeyIsNotReplayed: a checkpoint journal
// written under the previous key encoding belongs to another sweep, so
// resuming the same condition computes every shard and replays none —
// even though each of its records would decode.
func TestJournalUnderTheUnversionedKeyIsNotReplayed(t *testing.T) {
	const runs = 32
	dir := t.TempDir()
	h, base := testCondition(runs)
	want := encodeSweep(t, experiment.NewRunner(1), runs)
	shards := experiment.ShardCount(runs)

	oldFP := sweepFingerprint(unversionedKey, "plt", h.Runs, h.Seed)
	j, err := OpenJournal(dir, oldFP, false)
	if err != nil {
		t.Fatal(err)
	}
	r := experiment.NewRunner(1)
	for si := 0; si < shards; si++ {
		f := newPLTShard(t)()
		r.FillShard(h, base, si, f, nil)
		agg, err := experiment.EncodeFolder(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(si, shardFingerprint(oldFP, si), agg); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, Config{Workers: 2, CheckpointDir: dir, Resume: true})
	rr := experiment.NewRunner(0)
	rr.SetShardExecutor(c)
	if got := encodeSweep(t, rr, runs); !bytes.Equal(got, want) {
		t.Errorf("resumed sweep bytes differ from in-process")
	}
	if st := c.Stats(); st.ShardsReplayed != 0 || st.ShardsRemote != shards {
		t.Errorf("resume over an unversioned-key journal: replayed %d / remote %d, want 0 / %d", st.ShardsReplayed, st.ShardsRemote, shards)
	}
}

// TestWirePipe sanity-checks the frame codec over an in-memory pipe.
func TestWirePipe(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"runs":1}`)
	if err := writeFrame(&buf, msgProgress, payload); err != nil {
		t.Fatal(err)
	}
	fr, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fr.typ != msgProgress || !bytes.Equal(fr.payload, payload) {
		t.Fatalf("frame round trip mangled: type %d payload %q", fr.typ, fr.payload)
	}
	// Corrupt a payload byte: the checksum must catch it.
	if err := writeFrame(&buf, msgProgress, payload); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-6] ^= 0xff
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted frame passed the checksum")
	}
}

// TestTruncatedFrameAllocatesWhatArrives: a header that declares the
// largest payload the codec takes, followed by 16 bytes, is a truncated
// frame, and refusing it must cost what arrived, not what was declared.
func TestTruncatedFrameAllocatesWhatArrives(t *testing.T) {
	data := make([]byte, 9+16)
	binary.LittleEndian.PutUint32(data[0:4], frameMagic)
	data[4] = msgResult
	binary.LittleEndian.PutUint32(data[5:9], maxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("readFrame: %v, want the truncated-payload error", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("refusing a 16-byte payload allocated %d bytes", d)
	}
}
