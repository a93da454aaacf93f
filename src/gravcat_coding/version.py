TOOL_NAME = "gravcat-coding"
__version__ = "0.1.0"
# the fields that open each JSON document the tool writes about a grid or a report
STAMP = {"schema_version": 1, "tool": TOOL_NAME, "version": __version__}
