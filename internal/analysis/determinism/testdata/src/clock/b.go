package clock

import wall "time"

// renamed: a renamed import is still caught — detection resolves the
// package path, not the identifier spelled in source.
func renamed() wall.Time {
	return wall.Now() // want `time\.Now is wall-clock`
}
