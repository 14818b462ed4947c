package kernel

import "fmt"

// File is one open file description.
type File struct {
	Path  string
	Pos   int64
	Flags int
}

// FDTable is a process's file-descriptor table. On Linux and mOS it lives
// with the process; in McKernel's proxy model it lives in the Linux-side
// proxy process — "The actual set of open files; i.e., file descriptor
// table, file positions, etc., are tracked by the Linux kernel" — and the
// LWK merely forwards the integer. Every process builds one, but only the
// E7 oracle behind ltp's TestExecutedCasesAgreeWithEvaluate uses it: no
// binary links its methods.
type FDTable struct {
	next int
	open map[int]*File
}

// NewFDTable returns a table with stdin/stdout/stderr pre-opened.
func NewFDTable() *FDTable {
	t := &FDTable{next: 3, open: map[int]*File{
		0: {Path: "/dev/stdin"},
		1: {Path: "/dev/stdout"},
		2: {Path: "/dev/stderr"},
	}}
	return t
}

// Open allocates the lowest free descriptor for path.
func (t *FDTable) Open(path string, flags int) int {
	fd := t.lowestFree()
	t.open[fd] = &File{Path: path, Flags: flags}
	return fd
}

func (t *FDTable) lowestFree() int {
	for fd := 0; ; fd++ {
		if _, used := t.open[fd]; !used {
			return fd
		}
	}
}

// Get returns the file behind a descriptor.
func (t *FDTable) Get(fd int) (*File, error) {
	f, ok := t.open[fd]
	if !ok {
		return nil, fmt.Errorf("kernel: EBADF: fd %d not open", fd)
	}
	return f, nil
}

// Close releases the descriptor.
func (t *FDTable) Close(fd int) error {
	if _, ok := t.open[fd]; !ok {
		return fmt.Errorf("kernel: EBADF: fd %d not open", fd)
	}
	delete(t.open, fd)
	return nil
}

// Dup duplicates fd to the lowest free descriptor, sharing the file
// description (POSIX dup semantics: shared position).
func (t *FDTable) Dup(fd int) (int, error) {
	f, err := t.Get(fd)
	if err != nil {
		return -1, err
	}
	nfd := t.lowestFree()
	t.open[nfd] = f
	return nfd, nil
}

// Dup2 duplicates fd onto target, closing target first if open.
func (t *FDTable) Dup2(fd, target int) (int, error) {
	f, err := t.Get(fd)
	if err != nil {
		return -1, err
	}
	if fd == target {
		return target, nil
	}
	t.open[target] = f
	return target, nil
}

// Count returns the number of open descriptors.
func (t *FDTable) Count() int { return len(t.open) }
