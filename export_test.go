package pis

// MappedIndexPath exposes the backing file of db's mapped base index
// ("" for a heap index) to the external tests.
func MappedIndexPath(db *Database) string { return db.seg.MappedIndexPath() }
