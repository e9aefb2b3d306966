// memory.go: the in-RAM storage backend — the fingerprint.ShardedDB the
// serving layer has always used, satisfying Backend with a no-op Close.
package store

import (
	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
)

// Memory is the in-RAM backend: the fingerprint.ShardedDB the serving layer
// has always used, unchanged, satisfying Backend with a no-op Close.
type Memory struct {
	*fingerprint.ShardedDB
}

// OpenMemory builds an empty in-memory backend.
func OpenMemory(dbCfg DBConfig) (*Memory, error) {
	db, err := dbCfg.newShardedDB()
	if err != nil {
		return nil, err
	}
	return &Memory{ShardedDB: db}, nil
}

// Close releases nothing; the database is garbage-collected.
func (m *Memory) Close() error { return nil }

// ParallelDecide is fingerprint.ParallelDecide over the backend.
func (m *Memory) ParallelDecide(errorStrings []*bitset.Set, workers int) []fingerprint.Verdict {
	return fingerprint.ParallelDecide(m, errorStrings, workers)
}

var _ Backend = (*Memory)(nil)
