package serve

// SetMaxInflight bounds srv's per-connection pipeline for the external tests.
func (s *Server) SetMaxInflight(n int) { s.maxInflight = n }
