// Package clock exercises every banned wall-clock call plus the
// duration arithmetic that must stay allowed.
package clock

import "time"

func bad() time.Time {
	time.Sleep(time.Millisecond)                 // want `time\.Sleep is wall-clock`
	t := time.Now()                              // want `time\.Now is wall-clock`
	_ = time.Since(t)                            // want `time\.Since is wall-clock`
	_ = time.Until(t)                            // want `time\.Until is wall-clock`
	<-time.After(time.Nanosecond)                // want `time\.After is wall-clock`
	tm := time.NewTimer(time.Second)             // want `time\.NewTimer is wall-clock`
	tk := time.NewTicker(time.Second)            // want `time\.NewTicker is wall-clock`
	af := time.AfterFunc(time.Second, func() {}) // want `time\.AfterFunc is wall-clock`
	tm.Stop()
	tk.Stop()
	af.Stop()
	return t
}

// good: time.Duration values, arithmetic and formatting never touch the
// wall clock and stay legal everywhere.
func good(d time.Duration) string {
	d = 2*d + 30*time.Second
	return d.String()
}
