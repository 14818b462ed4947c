// Package kernel holds the framework shared by the three kernel models:
// the system-call inventory and per-kernel dispositions (native, offloaded,
// unsupported), capability flags, service-cost models, CPU/memory
// partitioning, and the scheduler models (cooperative LWK round-robin vs
// tick-driven time sharing).
package kernel

import (
	"fmt"
	"strconv"
)

// Sysno identifies a system call in the modelled ABI (a Linux-x86-64-like
// surface; the numbers are internal, not Linux's).
type Sysno int

// The system-call inventory. It covers everything the LTP-style
// conformance catalogue and the application models exercise.
const (
	// Process management
	SysFork Sysno = iota
	SysVfork
	SysClone
	SysExecve
	SysExit
	SysExitGroup
	SysWait4
	SysWaitid
	SysKill
	SysTgkill
	SysGetpid
	SysGettid
	SysGetppid
	SysSetpgid
	SysGetpgid
	SysSetsid
	SysGetuid
	SysGeteuid
	SysGetgid
	SysGetegid
	SysSetuid
	SysSetgid
	SysPtrace
	SysPrctl
	SysArchPrctl
	SysPersonality

	// Scheduling
	SysSchedYield
	SysSchedSetaffinity
	SysSchedGetaffinity
	SysSchedSetscheduler
	SysSchedGetscheduler
	SysSchedSetparam
	SysSchedGetparam
	SysNanosleep
	SysClockNanosleep
	SysSetpriority
	SysGetpriority

	// Time
	SysClockGettime
	SysClockGetres
	SysGettimeofday
	SysTimes
	SysGetrusage
	SysTimerCreate
	SysTimerSettime
	SysTimerDelete
	SysSetitimer
	SysGetitimer
	SysAlarm

	// Signals
	SysRtSigaction
	SysRtSigprocmask
	SysRtSigreturn
	SysRtSigsuspend
	SysRtSigpending
	SysRtSigtimedwait
	SysRtSigqueueinfo
	SysSigaltstack
	SysPause

	// Memory management
	SysBrk
	SysMmap
	SysMunmap
	SysMprotect
	SysMremap
	SysMadvise
	SysMlock
	SysMunlock
	SysMlockall
	SysMunlockall
	SysMsync
	SysMincore
	SysSetMempolicy
	SysGetMempolicy
	SysMbind
	SysMovePages
	SysMigratePages
	SysShmget
	SysShmat
	SysShmdt
	SysShmctl
	SysMemfdCreate
	SysUserfaultfd

	// Threads & synchronisation
	SysFutex
	SysSetTidAddress
	SysSetRobustList
	SysGetRobustList

	// File I/O
	SysOpen
	SysOpenat
	SysClose
	SysRead
	SysWrite
	SysPread64
	SysPwrite64
	SysReadv
	SysWritev
	SysLseek
	SysStat
	SysFstat
	SysLstat
	SysAccess
	SysDup
	SysDup2
	SysPipe
	SysPipe2
	SysFcntl
	SysIoctl
	SysSelect
	SysPoll
	SysEpollCreate
	SysEpollCtl
	SysEpollWait
	SysEventfd2
	SysGetdents64
	SysGetcwd
	SysChdir
	SysMkdir
	SysRmdir
	SysUnlink
	SysRename
	SysReadlink
	SysChmod
	SysChown
	SysUmask
	SysTruncate
	SysFtruncate
	SysFsync
	SysStatfs
	SysFlock

	// Networking
	SysSocket
	SysBind
	SysConnect
	SysListen
	SysAccept
	SysSendto
	SysRecvfrom
	SysSendmsg
	SysRecvmsg
	SysShutdown
	SysGetsockname
	SysGetpeername
	SysSetsockopt
	SysGetsockopt

	// System information & misc
	SysUname
	SysSysinfo
	SysGetrlimit
	SysSetrlimit
	SysCapget
	SysCapset
	SysSeccomp
	SysGetrandom
	SysPerfEventOpen

	numSysno // sentinel; keep last
)

// NumSyscalls is the size of the inventory.
const NumSyscalls = int(numSysno)

// All returns every syscall number in the inventory, in order.
func All() []Sysno {
	out := make([]Sysno, NumSyscalls)
	for i := range out {
		out[i] = Sysno(i)
	}
	return out
}

// Class groups syscalls by subsystem; kernels make offload decisions per
// class ("implement performance sensitive kernel services in the LWK ...
// rely on Linux for the rest").
type Class int

const (
	ClassProcess Class = iota
	ClassSched
	ClassTime
	ClassSignal
	ClassMemory
	ClassThread
	ClassFile
	ClassNet
	ClassInfo
)

// ClassOf returns the subsystem a syscall belongs to.
func ClassOf(n Sysno) Class {
	switch {
	case n >= SysFork && n <= SysPersonality:
		return ClassProcess
	case n >= SysSchedYield && n <= SysGetpriority:
		return ClassSched
	case n >= SysClockGettime && n <= SysAlarm:
		return ClassTime
	case n >= SysRtSigaction && n <= SysPause:
		return ClassSignal
	case n >= SysBrk && n <= SysUserfaultfd:
		return ClassMemory
	case n >= SysFutex && n <= SysGetRobustList:
		return ClassThread
	case n >= SysOpen && n <= SysFlock:
		return ClassFile
	case n >= SysSocket && n <= SysGetsockopt:
		return ClassNet
	default:
		return ClassInfo
	}
}

// sysnoNames maps a few syscalls that need precise names in output; the
// rest are derived from the constant spelling at String() time.
var sysnoNames = map[Sysno]string{
	SysBrk: "brk", SysMmap: "mmap", SysMunmap: "munmap",
	SysMprotect: "mprotect", SysMremap: "mremap", SysMadvise: "madvise",
	SysFork: "fork", SysVfork: "vfork", SysClone: "clone",
	SysFutex: "futex", SysSchedYield: "sched_yield",
	SysMovePages: "move_pages", SysSetMempolicy: "set_mempolicy",
	SysPtrace: "ptrace", SysPrctl: "prctl", SysIoctl: "ioctl",
	SysRead: "read", SysWrite: "write", SysOpen: "open", SysClose: "close",
}

// String returns a human-readable syscall name.
func (n Sysno) String() string {
	if s, ok := sysnoNames[n]; ok {
		return s
	}
	if n < 0 || n >= numSysno {
		return fmt.Sprintf("sys_%d?", int(n))
	}
	return "sys_" + strconv.Itoa(int(n))
}

// Valid reports whether n is in the inventory.
func (n Sysno) Valid() bool { return n >= 0 && n < numSysno }
