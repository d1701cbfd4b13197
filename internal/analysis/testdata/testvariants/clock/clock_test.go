package clock

import (
	"testing"
	"time"

	"testvariants/emit"
)

func TestInPackage(t *testing.T) {
	start := time.Now()
	for k := range map[string]int{"a": 1, "b": 2} {
		emit.Line(k)
	}
	_ = start
}
