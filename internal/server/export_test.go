package server

// Ready reports whether a generation is live.
func (s *Server) Ready() bool { return s.gen.Load() != nil }
