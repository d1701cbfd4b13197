// The checkpoint journal: an append-only on-disk manifest of completed
// shards, one JSON line per record, fronted by a header naming the
// sweep fingerprint it belongs to. A resumed coordinator replays the
// journal and re-runs only the missing shards; records are keyed by a
// per-shard input fingerprint, so a journal written against different
// inputs (other seeds, runs, options or folder) can never be replayed
// into the wrong sweep. Each record is fsynced as it lands: a
// SIGKILLed coordinator loses at most the shard in flight, and a
// half-written tail line is detected and truncated away on reopen.
package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

const journalVersion = 1

type journalHeader struct {
	V     int    `json:"v"`
	Sweep string `json:"sweep"`
}

type journalRecord struct {
	Shard       int    `json:"shard"`
	Fingerprint string `json:"fp"`
	Agg         []byte `json:"agg"`
}

// Journal is the on-disk checkpoint manifest for one sweep. Safe for
// concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	entries map[int]journalRecord
}

// journalPath derives the manifest filename from the sweep fingerprint,
// so distinct sweeps sharing one checkpoint directory never collide and
// -resume naturally finds only its own journal.
func journalPath(dir, sweepFP string) string {
	short := sweepFP
	if len(short) > 16 {
		short = short[:16]
	}
	return filepath.Join(dir, "sweep-"+short+".journal")
}

// OpenJournal opens the manifest for sweepFP under dir. With resume
// false any existing manifest is truncated (a fresh sweep); with resume
// true existing records are loaded for replay, tolerating a torn tail
// line from a killed coordinator. A manifest whose header names a
// different sweep fingerprint is an error, never silently reused.
func OpenJournal(dir, sweepFP string, resume bool) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	path := journalPath(dir, sweepFP)
	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o666)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, entries: map[int]journalRecord{}}
	if resume {
		if err := j.load(sweepFP); err != nil {
			f.Close()
			return nil, err
		}
	}
	if len(j.entries) == 0 && !j.hasHeader() {
		if err := j.writeHeader(sweepFP); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// hasHeader reports whether the file already starts with a header (set
// during load); a fresh or truncated file needs one written.
func (j *Journal) hasHeader() bool {
	st, err := j.f.Stat()
	return err == nil && st.Size() > 0
}

func (j *Journal) writeHeader(sweepFP string) error {
	line, err := json.Marshal(journalHeader{V: journalVersion, Sweep: sweepFP})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// load replays the manifest: header first, then records until EOF or
// the first torn line, which is truncated away with everything after it
// so subsequent appends start at a clean boundary.
func (j *Journal) load(sweepFP string) error {
	st, err := j.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return nil
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return err
	}
	sc := bufio.NewScanner(j.f)
	sc.Buffer(make([]byte, 64<<10), maxFramePayload)
	// A line is its bytes up to a newline, exactly: a last line without
	// one is a torn write however well it parses, and a '\r' is part of
	// the line, so valid counts every byte.
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		return 0, nil, nil
	})
	var valid int64
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			var hdr journalHeader
			if err := json.Unmarshal(line, &hdr); err != nil {
				return fmt.Errorf("fabric: journal %s has no parsable header: %w", j.f.Name(), err)
			}
			if hdr.V != journalVersion {
				return fmt.Errorf("fabric: journal %s has version %d, want %d", j.f.Name(), hdr.V, journalVersion)
			}
			if hdr.Sweep != sweepFP {
				return fmt.Errorf("fabric: journal %s belongs to sweep %.16s…, not %.16s… — refusing to resume against changed inputs",
					j.f.Name(), hdr.Sweep, sweepFP)
			}
			first = false
			valid += int64(len(line)) + 1
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail from a killed coordinator; truncate below
		}
		j.entries[rec.Shard] = rec
		valid += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil && valid == 0 {
		return err
	}
	if valid < st.Size() {
		if err := j.f.Truncate(valid); err != nil {
			return err
		}
	}
	_, err = j.f.Seek(valid, 0)
	return err
}

// Lookup returns the journaled aggregate for shard, provided the
// record's input fingerprint matches the one expected now.
func (j *Journal) Lookup(shard int, fingerprint string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.entries[shard]
	if !ok || rec.Fingerprint != fingerprint {
		return nil, false
	}
	return rec.Agg, true
}

// Len reports how many shards the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Append journals one completed shard and fsyncs it durable.
func (j *Journal) Append(shard int, fingerprint string, agg []byte) error {
	rec := journalRecord{Shard: shard, Fingerprint: fingerprint, Agg: agg}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.entries[shard] = rec
	return nil
}

// Close releases the manifest file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
