package sim

// Server models an exclusive-use resource with FIFO queueing — a memory
// controller, a bus, a DMA engine, a link in one direction. A caller
// occupies the server for a computed service time; contention shows up as
// queueing delay. The server tracks total busy time for utilization
// reporting.
type Server struct {
	eng *Engine

	// freeAt is the instant the server finishes its last accepted job.
	freeAt Time
	busy   Time
	jobs   int64
}

// NewServer returns an idle server.
func NewServer(eng *Engine) *Server {
	return &Server{eng: eng}
}

// BusyTime returns cumulative service time accepted so far.
func (s *Server) BusyTime() Time { return s.busy }

// Reserve books d of service time, starting as soon as the server is free,
// and returns the job's completion instant without blocking. A process that
// waits for the job sleeps until that instant (SleepUntil); fire-and-forget
// occupancy (e.g. DMA traffic charged against a memory controller) does not
// wait.
func (s *Server) Reserve(d Time) Time {
	if d < 0 {
		panic("sim: negative service time")
	}
	start := s.freeAt
	if start < s.eng.now {
		start = s.eng.now
	}
	s.freeAt = start + d
	s.busy += d
	s.jobs++
	return s.freeAt
}
