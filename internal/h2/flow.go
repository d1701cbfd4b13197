package h2

import "fmt"

// Flow-control constants (RFC 7540 §6.9).
const (
	// DefaultInitialWindow is the initial per-stream (and connection)
	// window before SETTINGS.
	DefaultInitialWindow = 65_535
	// MaxWindow is the largest legal window; an increment pushing a
	// window past it is a protocol error.
	MaxWindow = 1<<31 - 1
)

// FlowController enforces HTTP/2 credit-based flow control on the
// sending side of one connection: DATA consumes credit from both the
// stream's window and the shared connection window, WINDOW_UPDATE
// restores it. Two invariants hold at all times and are fuzzed in
// FuzzStreamFlowControl:
//
//  1. No window is ever negative: Consume rejects (and leaves state
//     untouched) rather than overdraw.
//  2. Conservation of granted bytes: every window equals its initial
//     size plus exactly the sum of its grants minus the sum of its
//     consumptions — credit is never minted or lost by bookkeeping.
type FlowController struct {
	conn       int64
	initStream int64
	// windows holds every stream's books by value, in the order the
	// streams were first touched; index maps a stream id to its place.
	// A new stream costs a slot in each, not an allocation of its own.
	windows     []streamWindow
	index       map[uint32]int
	consumedAll int64 // total bytes consumed (== sum over streams)
	grantedConn int64 // total connection-level grants
	initConn    int64
}

type streamWindow struct {
	window   int64
	granted  int64
	consumed int64
}

// NewFlowController returns a controller with the given initial
// connection and per-stream windows (use DefaultInitialWindow for the
// pre-SETTINGS default). Non-positive values are protocol nonsense and
// panic — they always indicate a wiring bug, not runtime input.
func NewFlowController(connWin, streamWin int64) *FlowController {
	if connWin <= 0 || connWin > MaxWindow || streamWin <= 0 || streamWin > MaxWindow {
		panic(fmt.Sprintf("h2: invalid initial windows %d/%d", connWin, streamWin))
	}
	return &FlowController{
		conn:       connWin,
		initConn:   connWin,
		initStream: streamWin,
		index:      make(map[uint32]int),
	}
}

// stream returns the books of stream id, opening them at the initial
// window on first use. The pointer is good until the next new stream.
func (f *FlowController) stream(id uint32) *streamWindow {
	i, ok := f.index[id]
	if !ok {
		i = len(f.windows)
		f.index[id] = i
		f.windows = append(f.windows, streamWindow{window: f.initStream})
	}
	return &f.windows[i]
}

// Avail returns the bytes sendable on the stream right now: the minimum
// of the stream window and the shared connection window.
func (f *FlowController) Avail(id uint32) int64 {
	s := f.stream(id)
	if s.window < f.conn {
		return s.window
	}
	return f.conn
}

// ConnWindow returns the current connection-level window.
func (f *FlowController) ConnWindow() int64 { return f.conn }

// StreamWindow returns the current window of one stream.
func (f *FlowController) StreamWindow(id uint32) int64 { return f.stream(id).window }

// Consume debits n DATA bytes from the stream and connection windows.
// It fails — changing nothing — if n is not positive or exceeds either
// window: a well-behaved sender never overdraws, so an error here means
// the caller's pacing logic is broken.
func (f *FlowController) Consume(id uint32, n int64) error {
	if n <= 0 {
		return fmt.Errorf("h2: consume of %d bytes on stream %d", n, id)
	}
	s := f.stream(id)
	if n > s.window {
		return fmt.Errorf("h2: stream %d window underflow: consume %d > window %d", id, n, s.window)
	}
	if n > f.conn {
		return fmt.Errorf("h2: connection window underflow: consume %d > window %d", n, f.conn)
	}
	s.window -= n
	s.consumed += n
	f.conn -= n
	f.consumedAll += n
	return nil
}

// Grant credits n bytes to one stream's window (a stream-level
// WINDOW_UPDATE). Zero or negative increments and overflow past
// MaxWindow are protocol errors (RFC 7540 §6.9.1) and change nothing.
func (f *FlowController) Grant(id uint32, n int64) error {
	if n <= 0 {
		return fmt.Errorf("h2: WINDOW_UPDATE of %d on stream %d", n, id)
	}
	s := f.stream(id)
	if s.window > MaxWindow-n {
		return fmt.Errorf("h2: stream %d window overflow: %d + %d > %d", id, s.window, n, int64(MaxWindow))
	}
	s.window += n
	s.granted += n
	return nil
}

// GrantConn credits n bytes to the connection window.
func (f *FlowController) GrantConn(n int64) error {
	if n <= 0 {
		return fmt.Errorf("h2: connection WINDOW_UPDATE of %d", n)
	}
	if f.conn > MaxWindow-n {
		return fmt.Errorf("h2: connection window overflow: %d + %d > %d", f.conn, n, int64(MaxWindow))
	}
	f.conn += n
	f.grantedConn += n
	return nil
}

// CheckConservation verifies invariant (2) for the connection and every
// stream ever touched, returning the first violation. The experiment
// harness calls it at end of run; the fuzz target after every op.
func (f *FlowController) CheckConservation(streamIDs []uint32) error {
	if f.conn != f.initConn+f.grantedConn-f.consumedAll {
		return fmt.Errorf("h2: connection credit leak: window %d != %d+%d-%d",
			f.conn, f.initConn, f.grantedConn, f.consumedAll)
	}
	if f.conn < 0 {
		return fmt.Errorf("h2: negative connection window %d", f.conn)
	}
	var sum int64
	for _, id := range streamIDs {
		s := f.stream(id)
		if s.window != f.initStream+s.granted-s.consumed {
			return fmt.Errorf("h2: stream %d credit leak: window %d != %d+%d-%d",
				id, s.window, f.initStream, s.granted, s.consumed)
		}
		if s.window < 0 {
			return fmt.Errorf("h2: negative window %d on stream %d", s.window, id)
		}
		sum += s.consumed
	}
	if len(streamIDs) > 0 && sum != f.consumedAll {
		return fmt.Errorf("h2: per-stream consumption %d != connection consumption %d", sum, f.consumedAll)
	}
	return nil
}
