package wal

// Test-only accessors: functions that no binary calls, defined beside the
// tests that read state through them.

// Count returns the number of intact records the log holds (recovered at
// Open plus appended since, including not-yet-synced ones).
func (l *Log) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }
