package driver

// MemoForms counts the published entries of the process-global memo table
// by form: compact (counters and row blobs, parts not yet materialized)
// and eager (parts in memory).
func MemoForms() (compact, eager int) {
	for _, s := range globalCache.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			switch sv := e.sv.Load(); {
			case sv == nil:
			case sv.parts == nil:
				compact++
			default:
				eager++
			}
		}
		s.mu.Unlock()
	}
	return compact, eager
}
