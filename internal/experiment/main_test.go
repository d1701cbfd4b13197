package experiment

import (
	"os"
	"testing"

	"spdier/internal/browser"
)

// TestMain arms the browser's pool-accounting checker for the entire
// package suite, so every session any test here runs — goldens, sweeps,
// the reference digests and metamorphic oracles — holds Browser.ActiveConns and
// the socket-stealing fast path to the walks they replaced.
func TestMain(m *testing.M) {
	browser.EnableInvariants()
	os.Exit(m.Run())
}
