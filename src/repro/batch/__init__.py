"""Two stubs the frozen ``perf/seams.py`` imports by path
(``repro.batch.engine.run_session_batch``, ``repro.batch.menus``); see
:mod:`repro.streaming.fastpath` for the stream kernel that replaced the
batch executor.  Nothing in ``src/`` imports this package."""
