// Malformed-input behavior of the interchange parsers: every rejection
// must carry the 1-based line number and the offending token, so a
// mis-assembled log from a real deployment is diagnosable from the message
// alone.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "io/views_io.hpp"

namespace cs {
namespace {

std::string views_error(const std::string& doc) {
  std::istringstream is(doc);
  try {
    load_views(is);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected load_views to reject:\n" << doc;
  return "";
}

std::string model_error(const std::string& doc) {
  std::istringstream is(doc);
  try {
    load_model(is);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected load_model to reject:\n" << doc;
  return "";
}

TEST(ViewsIoErrors, TruncatedFileNamesLineAndContext) {
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 2\nview 0 2\nS 0\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("view 0 declares 2 events"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, MissingViewBlockNamesProcessor) {
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 3\nview 0 1\nS 0\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("processor 1 of 3"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, UnknownEventTagIsNamed) {
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 1\nview 0 1\nQ 0.5\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown event tag 'Q'"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, WrongFieldCountIsDistinctFromUnknownTag) {
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 1\nview 0 1\nD 0.5 7\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("wrong field count"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'D'"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, EventCountMismatchDetectedAtNextViewHeader) {
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 2\nview 0 3\nS 0\nview 1 1\nS 0\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("event count mismatch"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, DuplicateViewBlockRejected) {
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 2\nview 0 1\nS 0\nview 0 1\nS 0\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate view block for processor 0"),
            std::string::npos)
      << msg;
}

TEST(ViewsIoErrors, OutOfOrderViewStillRejected) {
  // Pinned behavior: pid order is required (ahead-of-order pids are order
  // errors, not duplicates).
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 2\nview 1 1\nS 0\nview 0 1\nS 0\n");
  EXPECT_NE(msg.find("pid order"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, BadMessageIdNamesToken) {
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 1\nview 0 1\nD 0.5 12x 0\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'12x'"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, NegativeMessageIdRejected) {
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 1\nview 0 1\nD 0.5 -3 0\n");
  EXPECT_NE(msg.find("'-3'"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, BadHeaderNamesOffendingLine) {
  const std::string msg = views_error("chronosync-views v2\n");
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("chronosync-views v2"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, EmptyStreamReportsLineOne) {
  const std::string msg = views_error("");
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
}

TEST(ViewsIoErrors, ProcessorCountOverLimitNamesLineAndToken) {
  // One View per processor is allocated up front, so the count is bounded
  // before anything is sized from it.
  const std::string msg =
      views_error("chronosync-views v1\nprocessors 99999999999999\n");
  EXPECT_NE(msg.find("line 2: count '99999999999999' exceeds the limit " +
                     std::to_string(kMaxProcessors)),
            std::string::npos)
      << msg;
}

TEST(ViewsIoErrors, HugeEventCountNamesLineAndToken) {
  // A view's declared event count sizes nothing: the events present are
  // read, and the shortfall is reported against the declaring line.
  const std::string msg = views_error(
      "chronosync-views v1\nprocessors 1\nview 0 99999999999999\nS 0\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("view 0 declares 99999999999999 events at line 3"),
            std::string::npos)
      << msg;
  const std::string next = views_error(
      "chronosync-views v1\nprocessors 2\nview 0 99999999999999\nS 0\n"
      "view 1 1\nS 0\n");
  EXPECT_NE(next.find("line 5: event count mismatch: view 0 declares "
                      "99999999999999 events at line 3"),
            std::string::npos)
      << next;
}

TEST(ModelIoErrors, EndpointOutOfRangeNamesEndpointAndCount) {
  const std::string msg = model_error(
      "chronosync-model v1\nprocessors 2\nlink 0 5 none\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("endpoint 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("processors 2"), std::string::npos) << msg;
}

TEST(ModelIoErrors, WrongFieldCountForKnownKind) {
  const std::string msg = model_error(
      "chronosync-model v1\nprocessors 2\nlink 0 1 bounds 0.001\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("wrong field count"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'bounds'"), std::string::npos) << msg;
}

TEST(ModelIoErrors, InvertedBoundsRaiseTypedError) {
  // Refused in every build type, not left to Interval's assertion.
  const std::string msg = model_error(
      "chronosync-model v1\nprocessors 2\nlink 0 1 bounds 0.05 0.001\n");
  EXPECT_NE(msg.find("lower delay bound exceeds the upper bound"),
            std::string::npos)
      << msg;
}

TEST(ModelIoErrors, UnknownKindIsNamed) {
  const std::string msg = model_error(
      "chronosync-model v1\nprocessors 2\nlink 0 1 warp 3\n");
  EXPECT_NE(msg.find("unknown link kind 'warp'"), std::string::npos) << msg;
}

TEST(ModelIoErrors, ProcessorCountOverLimitNamesLineAndToken) {
  const std::string msg =
      model_error("chronosync-model v1\nprocessors 99999999999999\n");
  EXPECT_NE(msg.find("line 2: count '99999999999999' exceeds the limit"),
            std::string::npos)
      << msg;
}

TEST(ModelIoErrors, BadProcessorCountNamesToken) {
  const std::string msg = model_error(
      "chronosync-model v1\nprocessors two\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'two'"), std::string::npos) << msg;
}

}  // namespace
}  // namespace cs
