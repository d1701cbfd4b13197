package clock_test

import (
	"testing"
	"time"

	"testvariants/clock"
)

func TestExternal(t *testing.T) {
	time.Sleep(time.Millisecond)
	for k := range map[string]int{"a": 1, "b": 2} {
		clock.Dump(k)
	}
}
