"""A tiny scriptable shell over :class:`~repro.session.Session`.

Backs the ``repro session`` subcommand in both of its modes:

* **scripted** — ``repro session cholesky -n 4 --run 'step 5000; stack;
  inject llc_flush; step 5000; stack'`` executes a semicolon-separated
  command list and exits (CI's session-smoke job drives this);
* **interactive** — without ``--run`` the same commands are read from
  stdin, one per line, with a ``>>`` prompt on a TTY.

The shell is deliberately dumb: every command maps 1:1 onto a public
:class:`Session` method, so anything it can do a notebook can do — it
adds no semantics of its own.
"""

from __future__ import annotations

import sys
from typing import Callable, TextIO

from repro.errors import ConfigError, ReproError
from repro.session.session import SWAPPABLE_KINDS, Session

HELP = """\
commands (semicolon-separated in --run scripts):
  step [N]          advance ~N simulated cycles (default 10000)
  run               run to completion
  stack             render the speedup stack (partial mid-run)
  status            one-line progress summary
  counters          live accountant counters
  inject KIND [F]   perturb: llc_flush | mem_spike (factor F, default 2.0)
  swap KIND NAME    hot-swap a registry component: spin_detector
  save PATH         write a resumable checkpoint file
  events [N]        show the last N observability events (default 10)
  help              this text
  quit              leave the shell\
"""


class SessionShell:
    """Command dispatcher for one :class:`Session`."""

    def __init__(self, session: Session, out: TextIO | None = None) -> None:
        self.session = session
        self.out = out if out is not None else sys.stdout
        self._commands: dict[str, Callable[[list[str]], bool]] = {
            "step": self._cmd_step,
            "run": self._cmd_run,
            "stack": self._cmd_stack,
            "status": self._cmd_status,
            "counters": self._cmd_counters,
            "inject": self._cmd_inject,
            "swap": self._cmd_swap,
            "save": self._cmd_save,
            "events": self._cmd_events,
            "help": self._cmd_help,
            "quit": self._cmd_quit,
            "exit": self._cmd_quit,
        }

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    # each handler returns True to keep the shell alive, False to quit

    def _cmd_step(self, args: list[str]) -> bool:
        cycles = int(args[0].replace("_", "")) if args else 10_000
        self.session.step(cycles)
        self._print(repr(self.session))
        return True

    def _cmd_run(self, args: list[str]) -> bool:
        self.session.run()
        self._print(repr(self.session))
        return True

    def _cmd_stack(self, args: list[str]) -> bool:
        self._print(self.session.render_stack())
        return True

    def _cmd_status(self, args: list[str]) -> bool:
        status = self.session.status()
        self._print(", ".join(f"{k}={v}" for k, v in status.items()))
        return True

    def _cmd_counters(self, args: list[str]) -> bool:
        counters = self.session.counters()
        if not counters:
            self._print("(no accounting hardware attached)")
            return True
        for name, value in counters.items():
            self._print(f"  {name:<24s} {value}")
        return True

    def _cmd_inject(self, args: list[str]) -> bool:
        if not args:
            raise ConfigError(
                "inject needs a kind", field="inject",
                choices=("llc_flush", "mem_spike"),
            )
        kind = args[0]
        if len(args) > 1:
            self.session.inject(kind, factor=float(args[1]))
        else:
            self.session.inject(kind)
        self._print(f"injected {kind} at cycle {self.session.cycle:,}")
        return True

    def _cmd_swap(self, args: list[str]) -> bool:
        if len(args) != 2:
            raise ConfigError(
                "swap needs a kind and a registry name", field="swap",
                choices=SWAPPABLE_KINDS,
            )
        self.session.swap(args[0], args[1])
        self._print(f"swapped {args[0]} -> {args[1]} "
                    f"at cycle {self.session.cycle:,}")
        return True

    def _cmd_save(self, args: list[str]) -> bool:
        if len(args) != 1:
            raise ConfigError("save needs a path", field="save")
        header = self.session.save(args[0])
        self._print(f"saved checkpoint at cycle {header['cycle']} "
                    f"-> {args[0]}")
        return True

    def _cmd_events(self, args: list[str]) -> bool:
        if self.session.bus is None:
            self._print("(session built without events=True; nothing recorded)")
            return True
        last = int(args[0]) if args else 10
        tail = self.session.events[-last:]
        self._print(f"{len(self.session.events)} event(s) recorded; "
                    f"last {len(tail)}:")
        for event in tail:
            self._print(f"  {event!r}")
        return True

    def _cmd_help(self, args: list[str]) -> bool:
        self._print(HELP)
        return True

    def _cmd_quit(self, args: list[str]) -> bool:
        return False

    def execute(self, line: str) -> bool:
        """Run one command line; False means the shell should exit."""
        parts = line.strip().split()
        if not parts:
            return True
        name, args = parts[0], parts[1:]
        handler = self._commands.get(name)
        if handler is None:
            raise ConfigError(
                f"unknown session command {name!r}",
                field="command", choices=tuple(sorted(self._commands)),
            )
        return handler(args)

    def run_script(self, script: str) -> int:
        """Execute a semicolon-separated command list; returns an exit
        code (errors print to stderr rather than raising — the shell is
        a CLI surface)."""
        for command in script.split(";"):
            if not command.strip():
                continue
            try:
                if not self.execute(command):
                    break
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        return 0

    def interact(self, stream: TextIO | None = None) -> int:
        """Read commands from ``stream`` (default stdin) until EOF or
        ``quit``."""
        stream = stream if stream is not None else sys.stdin
        prompt = stream is sys.stdin and sys.stdin.isatty()
        self._print(repr(self.session))
        self._print("type 'help' for commands")
        while True:
            if prompt:
                self.out.write(">> ")
                self.out.flush()
            line = stream.readline()
            if not line:
                break
            try:
                if not self.execute(line):
                    break
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
        return 0
