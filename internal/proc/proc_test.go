package proc

import (
	"testing"
	"testing/quick"
)

func TestTablePIDsMonotonic(t *testing.T) {
	tbl := NewTable()
	a := tbl.Create("init", nil)
	b := tbl.Create("shell", a)
	c := tbl.Create("job", b)
	if a.PID != 1 || b.PID != 2 || c.PID != 3 {
		t.Fatalf("pids = %d,%d,%d want 1,2,3", a.PID, b.PID, c.PID)
	}
	if got, _ := tbl.Get(2); got != b {
		t.Fatal("Get(2) != shell")
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
}

func TestParentChildLinkage(t *testing.T) {
	tbl := NewTable()
	parent := tbl.Create("parent", nil)
	child := tbl.Create("child", parent)
	if child.Parent != parent {
		t.Fatal("child parent not set")
	}
	if len(parent.Children) != 1 || parent.Children[0] != child {
		t.Fatal("parent children not updated")
	}
}

func TestEnvInheritanceIsCopied(t *testing.T) {
	tbl := NewTable()
	parent := tbl.Create("shell", nil)
	parent.Setenv("LD_PRELOAD", "/tmp/evil.so")
	child := tbl.Create("job", parent)
	if child.Env["LD_PRELOAD"] != "/tmp/evil.so" {
		t.Fatal("env not inherited")
	}
	child.Setenv("LD_PRELOAD", "other")
	if parent.Env["LD_PRELOAD"] != "/tmp/evil.so" {
		t.Fatal("child env mutation leaked to parent")
	}
}

func TestNiceClamping(t *testing.T) {
	p := New(1, "p", nil)
	p.SetNice(-100)
	if p.Nice() != MinNice {
		t.Fatalf("nice = %d, want %d", p.Nice(), MinNice)
	}
	p.SetNice(100)
	if p.Nice() != MaxNice {
		t.Fatalf("nice = %d, want %d", p.Nice(), MaxNice)
	}
	p.SetNice(-5)
	if p.Nice() != -5 {
		t.Fatalf("nice = %d, want -5", p.Nice())
	}
}

func TestSignalFIFO(t *testing.T) {
	p := New(1, "p", nil)
	p.PushSignal(SIGSTOP)
	p.PushSignal(SIGCONT)
	s1, ok1 := p.PopSignal()
	s2, ok2 := p.PopSignal()
	_, ok3 := p.PopSignal()
	if !ok1 || !ok2 || ok3 {
		t.Fatal("pop availability wrong")
	}
	if s1 != SIGSTOP || s2 != SIGCONT {
		t.Fatalf("order = %v,%v want STOP,CONT", s1, s2)
	}
}

func TestDebugRegsMatch(t *testing.T) {
	d := DebugRegs{DR0: 0x1000, DR7: 1}
	if !d.Matches(0x1000, false) || !d.Matches(0x1000, true) {
		t.Fatal("any-access watchpoint missed")
	}
	if d.Matches(0x2000, false) {
		t.Fatal("matched wrong address")
	}
	d.OnWrite = true
	if d.Matches(0x1000, false) {
		t.Fatal("write-only watchpoint fired on read")
	}
	if !d.Matches(0x1000, true) {
		t.Fatal("write-only watchpoint missed write")
	}
	d.DR7 = 0
	if d.Matches(0x1000, true) {
		t.Fatal("disabled watchpoint fired")
	}
}

func TestStateAndLifecyclePredicates(t *testing.T) {
	p := New(1, "p", nil)
	if p.State != Embryo || p.Runnable() || !p.Alive() {
		t.Fatal("embryo predicates wrong")
	}
	p.State = Ready
	if !p.Runnable() {
		t.Fatal("ready not runnable")
	}
	p.State = Zombie
	if p.Alive() {
		t.Fatal("zombie reported alive")
	}
}

func TestThreadIdentity(t *testing.T) {
	tbl := NewTable()
	leader := tbl.Create("brute", nil)
	th := tbl.Create("brute-worker", leader)
	th.TGID = leader.PID
	if leader.IsThread() {
		t.Fatal("leader reported as thread")
	}
	if !th.IsThread() {
		t.Fatal("worker not reported as thread")
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable()
	a := tbl.Create("a", nil)
	b := tbl.Create("b", nil)
	tbl.Remove(a.PID)
	if _, ok := tbl.Get(a.PID); ok {
		t.Fatal("removed task still present")
	}
	all := tbl.All()
	if len(all) != 1 || all[0] != b {
		t.Fatalf("All after remove = %v", all)
	}
	tbl.Remove(999) // no-op
}

func TestStateStrings(t *testing.T) {
	states := map[State]string{
		Embryo: "embryo", Ready: "ready", Running: "running",
		Blocked: "blocked", Stopped: "stopped", Zombie: "zombie",
		Reaped: "reaped", State(0): "invalid",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("State(%d) = %q want %q", int(s), got, want)
		}
	}
	if SIGSTOP.String() != "SIGSTOP" || Signal(40).String() != "SIG(40)" {
		t.Error("signal strings wrong")
	}
}

func TestPIDUniquenessProperty(t *testing.T) {
	f := func(n uint8) bool {
		tbl := NewTable()
		seen := map[PID]bool{}
		for i := 0; i < int(n); i++ {
			p := tbl.Create("p", nil)
			if seen[p.PID] {
				return false
			}
			seen[p.PID] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
