// Package suppress exercises the //lint:allow directive paths the
// driver applies on top of raw analyzer output.
package suppress

import "time"

// ownLine: a directive alone on its line shields the next line.
func ownLine() time.Time {
	//lint:allow determinism startup banner timestamp, never read inside the event loop
	return time.Now()
}

// trailing: a directive at the end of the flagged line works too.
func trailing() time.Time {
	return time.Now() //lint:allow determinism startup banner timestamp, never read inside the event loop
}

// wrongAnalyzer: suppressing a different analyzer does not shield this
// finding.
func wrongAnalyzer() time.Time {
	//lint:allow shadow reason aimed at the wrong check
	return time.Now() // want `time\.Now is wall-clock`
}

// shieldIsNarrow: a trailing directive covers only its own line, so the
// line after it still reports.
func shieldIsNarrow() time.Time {
	_ = time.Now()    //lint:allow determinism covers this line only
	return time.Now() // want `time\.Now is wall-clock`
}
