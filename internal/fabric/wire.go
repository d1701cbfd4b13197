// Package fabric fans SweepStream shards out to worker processes: a
// coordinator partitions a sweep's seed space into the same fixed
// 16-run shards the in-process engine uses (experiment.ShardCount /
// ShardRange), spawns N re-execs of the current binary in a hidden
// worker mode, streams each completed shard's accumulator state back
// over a length-prefixed binary protocol on the worker's stdout pipe,
// and hands the decoded shards to SweepStream's shard-order merge — so
// the merged result is bit-identical to the single-process engine at
// any worker count. Completed shards are journaled to an on-disk
// checkpoint manifest keyed by an input fingerprint, so a killed sweep
// resumes by replaying the journal and re-running only missing shards;
// per-shard no-progress deadlines and worker respawn handle hung or
// died workers.
//
// Layering: worker.go and this file are on the deterministic side of
// the fence (no wall-clock time — enforced by simlint); coordinator.go
// alone owns real time, processes and deadlines.
package fabric

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"spdier/internal/experiment"
)

// Frame layout: magic(4) | type(1) | payloadLen(4) | payload | crc32(4),
// all little-endian; the checksum covers the payload only. The magic
// leads every frame so a worker that accidentally writes to stdout
// (a stray Print in an experiment) desynchronizes loudly instead of
// being parsed as a length.
const (
	frameMagic      = 0x31424653 // "SFB1" little-endian
	maxFramePayload = 64 << 20   // a shard aggregate is KBs; 64 MB is a corruption guard
)

// Frame types.
const (
	msgJob      byte = 1 // coordinator → worker: jobSpec
	msgResult   byte = 2 // worker → coordinator: shardResult
	msgProgress byte = 3 // worker → coordinator: progressMsg
	msgError    byte = 4 // worker → coordinator: errorMsg
	msgShutdown byte = 5 // coordinator → worker: clean exit
)

type frame struct {
	typ     byte
	payload []byte
}

// jobSpec assigns one shard of one sweep to a worker. Opts must be
// canonical (no explicit Pages) — the coordinator only dispatches
// cacheable conditions.
type jobSpec struct {
	Shard       int                `json:"shard"`
	Runs        int                `json:"runs"`
	Seed        uint64             `json:"seed"`
	Folder      string             `json:"folder"`
	Fingerprint string             `json:"fp"`
	Opts        experiment.Options `json:"opts"`
}

// shardResult carries a completed shard's encoded accumulator state.
type shardResult struct {
	Shard       int    `json:"shard"`
	Fingerprint string `json:"fp"`
	Agg         []byte `json:"agg"`
}

// progressMsg reports folded runs since the last report.
type progressMsg struct {
	Runs int `json:"runs"`
}

// errorMsg reports a failed job; the worker stays alive for the next.
type errorMsg struct {
	Msg string `json:"msg"`
}

// writeFrame emits one frame. Callers flush any buffering themselves.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("fabric: frame payload %d bytes exceeds limit", len(payload))
	}
	hdr := make([]byte, 9)
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(sum[:])
	return err
}

// readFrame consumes one frame, verifying magic, size and checksum.
// io.EOF is returned untouched at a clean frame boundary so callers can
// distinguish an orderly pipe close from a mid-frame truncation.
func readFrame(r io.Reader) (frame, error) {
	hdr := make([]byte, 9)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return frame{}, fmt.Errorf("fabric: truncated frame header")
		}
		return frame{}, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != frameMagic {
		return frame{}, fmt.Errorf("fabric: bad frame magic %#x (stray bytes on the pipe?)", m)
	}
	n := binary.LittleEndian.Uint32(hdr[5:9])
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("fabric: frame payload %d bytes exceeds limit", n)
	}
	// The buffer grows with the bytes that arrive, not with the length a
	// possibly corrupt header declares.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(payload) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return frame{}, fmt.Errorf("fabric: truncated frame payload: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return frame{}, fmt.Errorf("fabric: truncated frame checksum: %w", err)
	}
	if got, want := binary.LittleEndian.Uint32(sum[:]), crc32.ChecksumIEEE(payload); got != want {
		return frame{}, fmt.Errorf("fabric: frame checksum mismatch (%#x != %#x)", got, want)
	}
	return frame{typ: hdr[4], payload: payload}, nil
}
