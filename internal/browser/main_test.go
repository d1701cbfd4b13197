package browser

import (
	"os"
	"testing"
)

// TestMain arms the pool-accounting checker for the entire package
// suite: every HTTP load in every test runs with the maintained
// connection counts held to the walks they replaced, at every establish,
// dispatch, response and close, and panics on the first drift.
func TestMain(m *testing.M) {
	EnableInvariants()
	os.Exit(m.Run())
}
