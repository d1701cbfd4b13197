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

// nameChunk is how many bytes of names are allocated at a time.
const nameChunk = 4 << 10

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
		a.chunk.Reset()
		a.chunk.Grow(max(nameChunk, need))
	}
	at := a.chunk.Len()
	for _, p := range parts {
		a.chunk.WriteString(p)
	}
	return a.chunk.String()[at:]
}
