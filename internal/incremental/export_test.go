package incremental

// SetFSOp replaces the store's file-operation hook until the returned
// function restores it.
func SetFSOp(op func(do func() error) error) (restore func()) {
	old := fsOp
	fsOp = op
	return func() { fsOp = old }
}
