package flatesize

// CheckEveryQuery is checkEveryQuery, for the tests that size through
// the packages above this one.
var CheckEveryQuery = checkEveryQuery

// CheckEveryFloor is checkEveryFloor, for the tests that size through
// the packages above this one.
var CheckEveryFloor = checkEveryFloor
