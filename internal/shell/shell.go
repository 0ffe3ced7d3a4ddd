// Package shell models the command shell that launches user jobs.
// Its fork-then-exec structure is the launch-time attack surface of
// Section IV-A1: CPU metering for the job starts the instant the
// child process exists, yet the child spends its first moments
// executing *shell* code — so a provider that patches the shell to
// run extra instructions between fork() and execve() bills that work
// to the customer.
package shell

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/proc"
)

// StockContent is the measurement identity of the unmodified shell,
// matching the paper's testbed shell.
const StockContent = "bash-3.2 stock ubuntu-8.10"

// Job is one command line: a program to execute with optional extra
// environment (e.g. an attack-supplied LD_PRELOAD) and nice value.
type Job struct {
	Prog *guest.Program
	// Env entries are set in the child before exec, as
	// `VAR=val ./prog` would.
	Env map[string]string
	// Nice applies to the child (run via nice(1)).
	Nice int
}

// Config shapes the shell process itself.
type Config struct {
	// Content overrides the shell's measured identity; the shell
	// attack replaces it (patched bash binary).
	Content string
	// Inject, when non-nil, runs in the child between fork and exec
	// — the paper's shell attack payload, inserted in
	// execute_disk_command() between make_child() and
	// shell_execve().
	Inject guest.Routine
	// Env is the shell's login environment, inherited by jobs.
	Env map[string]string
}

// Session tracks a launched shell and the jobs it has run. Fields are
// filled in while the machine runs; read them after Machine.Run
// returns.
type Session struct {
	Shell *proc.Proc
	// JobPIDs holds the pid of each job's process, in submission
	// order, once forked.
	JobPIDs []proc.PID
}

// Launch spawns a shell process that runs the given jobs in order,
// waiting for each to finish — `./prog; ./prog2` at a prompt. The
// shell exits after the last job, so Machine.Run terminates.
func Launch(m *kernel.Machine, cfg Config, jobs ...Job) (*Session, error) {
	content := cfg.Content
	if content == "" {
		content = StockContent
	}
	sess := &Session{}
	body := func(ctx guest.Context) {
		for _, job := range jobs {
			job := job
			pid := ctx.Fork(job.Prog.Name, func(c guest.Context) {
				// The window between fork and exec: the child is
				// billed from birth but still runs shell code.
				if cfg.Inject != nil {
					cfg.Inject(c)
				}
				if job.Nice != 0 {
					c.SetNice(job.Nice)
				}
				for k, v := range job.Env {
					c.Setenv(k, v)
				}
				c.Exec(job.Prog)
			})
			sess.JobPIDs = append(sess.JobPIDs, pid)
			for {
				res, ok := ctx.Wait()
				if !ok {
					break
				}
				if res.PID == pid && !res.Stopped {
					break
				}
			}
		}
	}
	p, err := m.Spawn(kernel.SpawnConfig{
		Name:    "shell",
		Content: content,
		Env:     cfg.Env,
		Body:    body,
	})
	if err != nil {
		return nil, fmt.Errorf("launch shell: %w", err)
	}
	sess.Shell = p
	return sess, nil
}
