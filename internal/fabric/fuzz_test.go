package fabric

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// FuzzFrame feeds outside bytes, as a worker's stdout pipe carries
// them, to readFrame until it refuses one. It must never panic, and
// every frame it accepts must re-encode through writeFrame to exactly
// the bytes it consumed: a frame has one encoding.
func FuzzFrame(f *testing.F) {
	for _, fr := range []frame{
		{msgJob, []byte(`{"shard":1,"runs":16,"seed":1,"folder":"plt","fp":"ab"}`)},
		{msgResult, []byte(`{"shard":1,"fp":"ab","agg":"AQID"}`)},
		{msgProgress, []byte(`{"runs":1}`)},
		{msgError, []byte(`{"msg":"boom"}`)},
		{msgShutdown, nil},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr.typ, fr.payload); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(append([]byte{}, b...), b...))
		flipped := append([]byte{}, b...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			fr, err := readFrame(r)
			if err != nil {
				return
			}
			var out bytes.Buffer
			if err := writeFrame(&out, fr.typ, fr.payload); err != nil {
				t.Fatalf("re-encoding an accepted frame: %v", err)
			}
			if consumed := data[start : len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
				t.Fatalf("accepted %x but re-encodes as %x", consumed, out.Bytes())
			}
		}
	})
}

// FuzzJournalResume writes a journal of two intact records, appends
// outside bytes to it — a torn write, a corrupted or foreign line — and
// resumes it. Resuming must never panic, and must refuse a journal whose
// header names another sweep. It must replay only shards whose record
// is a whole line, newline included: a line without one is a torn
// write, however well it parses. And the journal it leaves must take
// the next record: appending one and resuming again replays what the
// first resume did, plus that record.
func FuzzJournalResume(f *testing.F) {
	f.Add(false, []byte(nil))
	f.Add(false, []byte(`{"shard":2,"fp":"fp2","agg":"Aw=="}`+"\n"))
	f.Add(false, []byte(`{"shard":2,"fp":"fp2","agg":"Aw=="}`))
	f.Add(false, []byte(`{"shard":2,"fp":"fp2","agg":"Aw=="}`+"\r\n"))
	f.Add(false, []byte(`{"shard":2,"fp":"fp2","ag`))
	f.Add(false, []byte("\x00\xff\n"+`{"shard":3,"fp":"fp3","agg":""}`+"\n"))
	f.Add(true, []byte(nil))
	f.Fuzz(func(t *testing.T, foreign bool, tail []byte) {
		const sweep = "aaaabbbbccccdddd0000"
		dir := t.TempDir()
		header := sweep
		if foreign {
			header = "aaaabbbbccccdddd1111" // the same file name, another sweep
		}
		j, err := OpenJournal(dir, header, false)
		if err != nil {
			t.Fatal(err)
		}
		for shard, agg := range [][]byte{{1}, {2}} {
			if err := j.Append(shard, "fp"+strconv.Itoa(shard), agg); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		path := journalPath(dir, sweep)
		file, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		j, err = OpenJournal(dir, sweep, true)
		if foreign {
			if err == nil {
				j.Close()
				t.Fatal("resumed a journal of another sweep")
			}
			return
		}
		if err != nil {
			t.Fatalf("resuming: %v", err)
		}
		// The records of whole lines, the oracle for what may replay.
		lines := bytes.Split(written, []byte("\n"))
		whole := map[string]bool{}
		for _, line := range lines[:len(lines)-1] {
			var rec journalRecord
			if json.Unmarshal(line, &rec) == nil {
				whole[recordKey(rec)] = true
			}
		}
		for shard, rec := range j.entries {
			if !whole[recordKey(rec)] {
				t.Fatalf("replayed shard %d from %+v, which is no whole line of the journal", shard, rec)
			}
		}
		if _, ok := j.entries[0]; !ok {
			t.Fatal("the intact record of shard 0 was not replayed")
		}
		if err := j.Append(99, "fp99", []byte{9}); err != nil {
			t.Fatal(err)
		}
		want := maps.Clone(j.entries)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenJournal(dir, sweep, true)
		if err != nil {
			t.Fatalf("resuming after an append: %v", err)
		}
		defer again.Close()
		if !reflect.DeepEqual(again.entries, want) {
			t.Fatalf("resuming after an append replays %+v, want the first resume's records plus the appended one: %+v", again.entries, want)
		}
	})
}

// recordKey renders a record for comparison.
func recordKey(rec journalRecord) string {
	b, _ := json.Marshal(rec)
	return string(b)
}
