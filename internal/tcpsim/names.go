package tcpsim

import "strings"

// NameArena is where a run's connection names come from: cut one behind
// the other from chunks they share, instead of allocated apiece — an
// HTTP session names some 1,400 connections and both ends of each. The
// names live as long as anything holds one of a chunk's, which for a run
// is the same thing: records and probe samples keep them all. The zero
// value is ready for use.
type NameArena struct {
	chunk strings.Builder
}

// A chunk is twice the size of the one before, from 128 bytes to 4 KiB:
// a session of one connection allocates little more than its two names,
// one of 1,400 a chunk per 70.
const minNameChunk, maxNameChunk = 128, 4 << 10

// Cut returns the concatenation of parts. A strings.Builder never
// rewrites what it has handed out, so a name stays good while later ones
// are appended behind it; a chunk without room for the next is left to
// the names cut from it and a new one begun.
func (a *NameArena) Cut(parts ...string) string {
	need := 0
	for _, p := range parts {
		need += len(p)
	}
	if a.chunk.Cap()-a.chunk.Len() < need {
		size := min(max(minNameChunk, 2*a.chunk.Cap()), maxNameChunk)
		a.chunk.Reset()
		a.chunk.Grow(max(size, need))
	}
	at := a.chunk.Len()
	for _, p := range parts {
		a.chunk.WriteString(p)
	}
	return a.chunk.String()[at:]
}
