package main

import "syscall"

// childProcAttr makes the kernel kill a child when the harness dies without
// running its own clean-up (SIGKILL, a driver timeout), so no haserve is
// ever orphaned.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
